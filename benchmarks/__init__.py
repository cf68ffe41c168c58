"""The speed gate and ledger over perfbench (``bench_regression``)."""
