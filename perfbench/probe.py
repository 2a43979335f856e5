"""Fresh-process probe: times the set-up a new process pays, then
optionally one cold op.

    python3 perfbench/probe.py <workload> <smoke 0|1> <op seed> <first op 0|1>

Set-up is importing ``ellweights``, creating the workload's ThetaContext and
getting its permutation tables.  Each time is also given divided by the
host-speed factor measured next to it (see hostspeed.py).  Prints one
JSON object.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    name, smoke, seed, first_op = argv[0], argv[1] == "1", int(argv[2]), argv[3] == "1"
    import workloads
    w = workloads.WORKLOADS[name]
    if smoke:
        w = w.smoke()
    ctx = workloads.setup(w)
    setup_s = time.perf_counter() - T0
    import hostspeed
    out = {"setup_s": setup_s / hostspeed.factor_now(), "setup_raw_s": setup_s}
    if first_op:
        with hostspeed.Sampler() as sp:
            res = workloads.run_op(w, ctx, seed, lambda: time.perf_counter() - sp.spent)
            sp.top_up(5)
        out.update(first_op_s=res.seconds / sp.factor(res.start, res.end),
                   first_op_raw_s=res.seconds, ok=res.ok, error=res.error)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
