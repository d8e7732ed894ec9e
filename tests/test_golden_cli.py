"""Byte-identity of the CLI artifacts and --help texts with recorded digests.

A child interpreter, with OpenBLAS on one thread, writes a small seeded
lat/lon CSV and a two-line scenario file, then runs ``elbow``, ``fit``,
``covariance --fit-dir`` and ``simulate`` through ``cli.main``.  The
sha256 of every artifact and of each command's stdout must equal the
digests below, which were recorded before the kernel dispatch moved into
``kernels`` and the parser was generated from the defaults tables.  The
``fit``, ``covariance`` and ``simulate`` table digests were re-recorded
when the local normal equations took their weighted sums from one matrix
product, which rounds them differently, and again when the local systems
moved to the design's centered frame with one solve for the smoother row.
The ``covariance`` digests and the ``simulate`` SSE_cor table were
re-recorded when the covariance layer evaluated all lags in one vector pass
of segment moments, and sse_cor summed over the sorted pair index.
Path-valued keys of ``config_echo.txt`` are left out, because the run
directory differs per test.  Re-record a digest only together with a
CHANGES.md note that says which output moved and why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import corrsmooth

_SCRIPT = """
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from corrsmooth.cli import main

root = Path(sys.argv[1])
rng = np.random.default_rng(2718)
n = 120
lat = 30.0 + 3.0 * rng.random(n)
lon = -92.0 + 4.0 * rng.random(n)
y = 2.0 * np.sin(np.pi * (lon + 92.0) / 2.0) + 2.0 * ((lat - 30.0) / 3.0) ** 2
y = y + 0.3 * rng.standard_normal(n)
csv_path = root / "geo.csv"
csv_path.write_text("x1,x2,y\\n" + "".join(
    f"{a!r},{b!r},{c!r}\\n" for a, b, c in zip(lat.tolist(), lon.tolist(), y.tolist())
))
scenes = root / "scenes.txt"
scenes.write_text(
    "family=spherical c=2.0 D=2 n=80 seed=5 trials=1 methods=za(1,1.5);gcv\\n"
    "family=exponential c=1.0 D=2 n=80 seed=6 trials=2 methods=za(2,2.5)\\n"
)
geo = ["--input", str(csv_path), "--metric", "haversine"]
runs = {
    "elbow": [*geo, "--c1-list", "0.5:2.5:0.25", "--grid-size", "8"],
    "fit": [*geo, "--c1", "1.0", "--grid-size", "10", "--surface-grid", "6"],
    "covariance": [*geo, "--fit-dir", str(root / "fit"), "--n-star", "30"],
    "simulate": ["--scenarios", str(scenes), "--n-star", "20"],
}
path_keys = {b"input", b"output_dir", b"fit_dir", b"scenarios"}
digests = {}
for name, argv in runs.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([name, *argv, "--output-dir", str(root / name)])
    digests[f"{name}/exit"] = code
    text = out.getvalue().replace(str(root), "<root>").encode()
    digests[f"{name}/stdout"] = hashlib.sha256(text).hexdigest()
    for path in sorted((root / name).iterdir()):
        data = path.read_bytes()
        if path.name == "config_echo.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if line.split(b"=", 1)[0] not in path_keys
            )
        digests[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
helps = {}
for name in ("fit", "elbow", "covariance", "simulate"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        main([name, "--help"])
    helps[name] = out.getvalue()
print(json.dumps({"artifacts": digests, "help": helps}))
"""

_ARTIFACTS = {
    "elbow/exit": 0,
    "elbow/stdout": "3d563e6d48ac8fe1728baa7af9850896642e0e49aecdc46c4f71b5c9b8a3f7bc",
    "elbow/config_echo.txt": "af304780e898846bb2c6a32aebfa9e1c45e0cf8c2586f084afd70eb7a0698ac4",
    "elbow/elbow.csv": "c05390a409db238485e072c8768b83999dd24fd48e2992dd0d9810cea1b00f65",
    "elbow/report.txt": "485486f631be34da52ee83ffff79f6c246681f0fa9436dec28c993fd22337a05",
    "fit/exit": 0,
    "fit/stdout": "fc766e815ee7a3801673eda162af80d78dcffbe17b5c045f54ae117763fffe0d",
    "fit/config_echo.txt": "139a529140991b8a4387592ff35fb5a1ae90d94c1e5a73f45326c683a18de14c",
    "fit/fitted.csv": "307007b70e4cee22736544df5416e3acfa690e6329a1e3747e132eacc32006a0",
    "fit/report.txt": "f99cf439b8ca8442961f1d4353696fe2c94b4cbfd1d3c087862c8fc3137f1b56",
    "fit/rss_trace.csv": "3930bb7a9bdfd38054eaabe1184ff232824b92a5beb0ad0de4ca396846720a8b",
    "fit/surface.csv": "2faabef95118279e3630087816116f350fc2d7772d6b5630c89809f9a51c336d",
    "covariance/exit": 0,
    "covariance/stdout": "0eb3030e9f6a4609d5fd0a5dfac1fd09ce20ae925ffbc341b06a67cfcdef677e",
    "covariance/calibration.csv": "978db78ab8788fea5f0f4633ae3022a33745b5494675f1e222b6d7a80eeefe89",
    "covariance/config_echo.txt": "870f46c6386a34020979735a26f1f5ad7c66b90e8736be635440516b1a8bf722",
    "covariance/covariance.csv": "75a181c6292a76141da33b787fef7c4eada7df9fcd641432ba2ebed37fd3de74",
    "covariance/report.txt": "19dc949c2811429511494fb61a02e609901809d06471175469df0365833304a3",
    "simulate/exit": 0,
    "simulate/stdout": "6f695a41d5c6ded018f37a55275d8b889aa21807cc8a70b79b35ffcb841462ac",
    "simulate/config_echo.txt": "fcc4325184ed9cdf1735f2d3f9b0c6da125157ac4faeee1fe71a9877404caebf",
    "simulate/failures.csv": "ff2a908c7b6ccdb4c54b9c9ad2075d7208dae7a70135ca5cd8d21d079e19bf74",
    "simulate/report.txt": "af1a93ae963adb57d567e21b149feceaf9b492e63688ba22936442b1c7108e65",
    "simulate/table_mse_prac.csv": "c8e21abc8bb4b2f0126c4e02afb9dc5df38e0b71e95bff71f0c01b371ceb0b7c",
    "simulate/table_mse_sigma2.csv": "b4bedd7bc4f3844ad63b96d65deccc723764702dd665f72cda14614ec18b3605",
    "simulate/table_sse_cor.csv": "01365943be982e5b833978164d573a3fdb8ecc15d5216d6f6c5b3d3f30339335",
}

# --help at COLUMNS=100 (argparse as in Python 3.11).
_HELP = {
    "fit": "0c6f550c827d7d86651d3a4ac66baeb6e452a38dbc83a261195daad888838a8e",
    "elbow": "8af58b26a7b3d2fede65ac5328667c707cb93eba8fa85b98f6d0cb0529a12654",
    "covariance": "c147d6bdb92454ac3be80d5b76c4686741610d8d1899eabe61f7c2ff7312fd1e",
    "simulate": "1841227d4c8de2a3ac7f1a8071ccbbe681ad02173eab1052247adf3b7382a2ec",
}
# The one help line that changed since the recording: covariance --grid
# gained the help text that fit --grid already had.
_GRID_HELP = "  --grid GRID           explicit grid 'a,b,c' or 'lo:hi:step'\n"


def _run_golden(tmp_path, blas_threads="1"):
    src = str(Path(corrsmooth.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
               COLUMNS="100")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def test_cli_artifacts_and_help_match_recorded_digests(tmp_path):
    result = _run_golden(tmp_path)
    assert result["artifacts"] == _ARTIFACTS
    helps = dict(result["help"])
    assert _GRID_HELP in helps["covariance"]
    helps["covariance"] = helps["covariance"].replace(_GRID_HELP, "  --grid GRID\n")
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in helps.items()}
    assert digests == _HELP


def test_cli_artifacts_match_recorded_digests_on_two_blas_threads(tmp_path):
    # simulate's seeded errors come from an eigendecomposition pinned to one
    # BLAS thread, so the artifacts keep their bytes with two
    assert _run_golden(tmp_path, blas_threads="2")["artifacts"] == _ARTIFACTS
