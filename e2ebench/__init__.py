"""End-to-end benchmark of the reservation service and the offline pipeline.

Run one workload with::

    python3 e2ebench/run.py --workload svc_steady --seed 1 --seconds 10 --trace 0

See :mod:`e2ebench.run` for the command line, :mod:`e2ebench.workloads`
for what each workload feeds the program, and :mod:`e2ebench.tracer` for
the outside-in span tracer behind ``--trace 1``.
"""
