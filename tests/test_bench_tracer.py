"""The benchmark's tracer wraps vertereg's functions by name; a rename must
fail here, not only in a traced benchmark run."""

from pathlib import Path

import numpy as np

from vertereg import (cli, cloud, formats, geom, maskgen, metrics, register, sim,
                      stream, track)

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {"cli": cli, "cloud": cloud, "formats": formats, "geom": geom,
           "maskgen": maskgen, "metrics": metrics, "register": register, "sim": sim,
           "stream": stream, "track": track}


def _lookup(mod_name, attr):
    owner = MODULES[mod_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)


def test_tracer_installs_on_every_wrapped_name_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import WRAPPED, Tracer

    before = {(m, a): _lookup(m, a) for m, a, _ in WRAPPED}
    tracer = Tracer()
    try:
        tracer.install(MODULES)
        for (m, a), fn in before.items():
            assert _lookup(m, a).__wrapped__ is fn, f"{m}.{a}"
        index = cloud.NearestNeighborIndex(np.zeros((1, 3)))
        index.query(np.array([[1.0, 1.0, 1.0], [10.0, 0.0, 0.0]]), 5.0)
    finally:
        tracer.uninstall()
    for (m, a), fn in before.items():
        assert _lookup(m, a) is fn, f"{m}.{a}"
    names = [s[4] for s in tracer.spans]
    assert names == ["cloud.index_build", "cloud.query"]
    assert tracer.spans[1][7] == {"points": 2, "pairs": 1}
