#!/bin/sh
# Runs every README config through the installed `calderon-lab` console
# script (not python -m) three times, each run in a fresh directory: the
# pipeline synth-dataset -> validate-dataset -> counterexample-study
# included. The third run is pinned to one BLAS thread. All three runs'
# report.json files must be byte-identical across processes and thread
# counts; the script prints the first run's sha256 of each and exits
# non-zero on the first failed command or differing report.
#
#     sh ci/readme_configs.sh
set -eu
calderon-lab --help > /dev/null
runs=""
trap 'rm -rf $runs' EXIT
for k in 1 2 3; do
  d="$(mktemp -d)"
  runs="$runs $d"
  (
    cd "$d"
    if [ "$k" = 3 ]; then
      export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
    fi
    echo '{"n": 3, "size": 9, "tuples": 5, "seed": 0}' > identities.json
    calderon-lab verify-identities --config identities.json --out results/identities/
    echo '{"n": 2, "sizes": [9, 17, 33], "metric": {"kind": "random-trig", "seed": 3}, "transform": {"kind": "conformal-2d", "factor": {"seed": 1, "amplitude": 0.3, "offset": 1.4}}}' > conformal2d.json
    calderon-lab dn-compare --config conformal2d.json --out results/conformal2d/
    echo '{"n": 3, "sizes": [9, 17], "metric": {"kind": "random-trig", "seed": 2}, "transform": {"kind": "diffeo", "diffeo": {"family": "cubic", "amplitude": 0.05, "shear": {"axis": 2}}}}' > diffeo.json
    calderon-lab dn-compare --config diffeo.json --out results/diffeo/
    echo '{"n": 3, "sizes": [9, 17], "metric": {"kind": "random-trig", "seed": 2}, "transform": {"kind": "conformal-link"}}' > link.json
    calderon-lab dn-compare --config link.json --out results/link/
    echo '{"grid": {"num_t": 13, "num_ang": [12, 12]}, "modes": [[1, 0], [0, 1]], "amplitude": 0.1, "output": "ds.json"}' > synth.json
    echo '{"dataset": "results/ds.json"}' > validate.json
    echo '{"dataset": "results/ds.json", "eps": [0.0, 0.05, 0.1], "strides": [2, 1]}' > study.json
    calderon-lab synth-dataset --config synth.json --out results/
    calderon-lab validate-dataset --config validate.json --out results/validate/
    calderon-lab counterexample-study --config study.json --out results/study/
    echo '{"n": 3, "size": 9, "seeds": [0, 1]}' > rigidity.json
    calderon-lab rigidity-check --config rigidity.json --out results/rigidity/
  )
done
set -- $runs
for f in identities conformal2d diffeo link . validate study rigidity; do
  cmp "$1/results/$f/report.json" "$2/results/$f/report.json"
  cmp "$1/results/$f/report.json" "$3/results/$f/report.json"
  (cd "$1/results" && sha256sum "$f/report.json")
done
