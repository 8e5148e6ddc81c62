/**
 * @file
 * The declarative study driver: every figure/table/ablation of the
 * evaluation registers a StudySpec (see bench/studies/), and this one
 * binary lists and runs them.
 *
 *   cdcs_studies list
 *   cdcs_studies run fig11 fig12 --set meshWidth=16 --set mixes=8
 *   cdcs_studies run all --format=json
 *
 * `--set key=value` overrides and the CDCS_* environment knobs
 * (EXPERIMENTS.md) are typed and validated alike. With the
 * default text format and default knobs, `run <study>` output is
 * byte-identical to the legacy per-figure harness it replaced.
 */

#include "sim/study.hh"

int
main(int argc, char **argv)
{
    return cdcs::studiesCliMain(argc, argv);
}
