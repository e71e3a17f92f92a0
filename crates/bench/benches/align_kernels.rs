//! B1 — alignment kernel micro-benchmarks: the rows nothing else prints.
//!
//! `abl_kernels --smoke` (`BENCH_kernels.json`, smoke-run in CI) measures
//! the kernels DSEARCH selects by name — scalar, striped with the
//! profile reused, global, semi-global — and is what the cost
//! model (`AlignKernel::cost_cells`) is calibrated against. This bench
//! keeps what that run leaves out, over a length sweep: the striped
//! kernel *cold* (profile built per pair), the banded global kernel, and
//! the two traceback kernels.
//!
//! Run with: `cargo bench -p biodist-bench --bench align_kernels`

use biodist_align::{nw_align, nw_banded_score, sw_align, sw_score_striped};
use biodist_bench::Runner;
use biodist_bioseq::synth::random_sequence;
use biodist_bioseq::{Alphabet, ScoringScheme, Sequence};

fn pair(len: usize) -> (Sequence, Sequence) {
    (
        random_sequence(Alphabet::Protein, "a", len, 1),
        random_sequence(Alphabet::Protein, "b", len, 2),
    )
}

fn main() {
    let scheme = ScoringScheme::protein_default();
    let mut r = Runner::new();

    for len in [64usize, 256, 512] {
        let (a, b) = pair(len);
        let cells = Some((len * len) as u64);
        r.run(&format!("score_kernels/sw_striped/{len}"), cells, || {
            sw_score_striped(&a, &b, &scheme)
        });
        r.run(&format!("score_kernels/nw_banded_16/{len}"), cells, || {
            nw_banded_score(&a, &b, &scheme, 16)
        });
    }

    let (a, b) = pair(256);
    let cells = Some(256u64 * 256);
    r.run("traceback_kernels/nw_align/256", cells, || {
        nw_align(&a, &b, &scheme)
    });
    r.run("traceback_kernels/sw_align/256", cells, || {
        sw_align(&a, &b, &scheme)
    });

    r.report("B1: alignment kernel throughput (elements = DP cells)");
}
