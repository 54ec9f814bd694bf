"""nbpk: a desk-scale sensor-streaming bridge toolkit.

Streams camera and motion data from an emulated robot over UDP, reassembles
fragmented frames with a preemptive drop policy, publishes them on a typed
in-process topic bus, records/replays datasets, benchmarks delivery against
the analytic loss model, and does the rigid-body math for add-on payloads.

The package exports nothing: import from its modules (``nbpk.wire``,
``nbpk.bridge``, ...), so loading one loads only the modules it needs.
"""
