"""Epsilon conventions.

Epsilons order operations within one tick (paper §III-B).  The
simulator-wide convention used by all built-in components:

========  =======================================================
epsilon   what runs there
========  =======================================================
0         channel deliveries: flits and credits arrive
1         terminal traffic generation (new messages appear)
2         internal pipeline arrivals (free for user components: the
          packaged routers land core arrivals inside their step)
3         router / interface cycle step (allocation, transmission)
5         workload state machine transitions
7         monitors and statistics sampling
========  =======================================================

A component is free to use other epsilons, but sticking to these makes
cross-component ordering predictable: everything that arrives at tick T
is visible to the allocation step of tick T, and statistics observe the
post-step state.

Epsilons 0 and 3 are *phases* in the literal sense: the packaged
channels, routers and interfaces register on the simulator's phase
wheels (:mod:`repro.core.wheel`), which run all landings of a tick from
one engine event and all steps from another, in registration order.  A
user component may still ``call_at`` either epsilon; its order relative
to the packaged devices *within* that ``(tick, epsilon)`` is not a
contract (and never was).
"""

EPS_DELIVER = 0
EPS_GENERATE = 1
EPS_PIPELINE = 2
EPS_STEP = 3
EPS_CONTROL = 5
EPS_MONITOR = 7
