//! B1/B3 — step-solver scaling, the unit-propagation ablation, the
//! compiled-path speedup and the serial/parallel exploration pair.
//!
//! B1: acceptable-step enumeration time vs number of events for the
//! sub-clock chain and exclusion clique workloads (compiled path).
//! B3 (ablation): pruned three-valued search vs naive 2^n enumeration.
//! B4 (compilation): queries on a compiled `Program` cursor vs
//! recompiling the program on every query — the hot-path win of
//! hoisting formula lowering out of the query loop.
//! B5 (parallel explorer): `explore_serial/` (1 worker) vs
//! `explore_parallel/` (4 workers) on an SDF-chain state space; both
//! sides produce byte-identical `StateSpace`s.
//!
//! Runs on the in-repo `Instant`-based harness (criterion is not
//! fetchable offline); emits `BENCH_solver.json` at the workspace root.

use moccml_bench::harness::BenchGroup;
use moccml_bench::workloads::{exclusion_clique_spec, sdf_chain, subclock_chain_spec};
use moccml_engine::{ExploreOptions, Program, SolverOptions};
use moccml_sdf::mocc::build_specification;
use std::hint::black_box;

fn main() {
    let mut group = BenchGroup::new("solver").with_iters(20);
    for n in [4usize, 8, 12] {
        let chain = Program::new(subclock_chain_spec(n)).cursor();
        group.bench(&format!("subclock_chain/{n}"), || {
            black_box(&chain).acceptable_steps(&SolverOptions::default())
        });
        let clique = Program::new(exclusion_clique_spec(n)).cursor();
        group.bench(&format!("exclusion_clique/{n}"), || {
            black_box(&clique).acceptable_steps(&SolverOptions::default())
        });
    }
    for n in [8usize, 12] {
        let spec = Program::new(exclusion_clique_spec(n)).cursor();
        group.bench(&format!("ablation_pruned/{n}"), || {
            black_box(&spec).acceptable_steps(&SolverOptions::default())
        });
        group.bench(&format!("ablation_naive_2n/{n}"), || {
            black_box(&spec).acceptable_steps(&SolverOptions::naive())
        });
    }
    // B4: the compilation split's hot-path claim — querying a compiled
    // program's cursor vs recompiling the program (re-lowering every
    // constraint formula) on each call, the measured stand-in for the
    // removed 0.1 free functions. The SDF chain is the representative
    // workload: automaton constraints lower their formulas by walking
    // transitions and guard expressions, exactly the work the `Program`
    // memo hoists out of the query loop.
    for n in [8usize, 12] {
        let spec = subclock_chain_spec(n);
        let compiled = Program::compile(&spec).cursor();
        group.bench(&format!("compiled/subclock_chain/{n}"), || {
            black_box(&compiled).acceptable_steps(&SolverOptions::default())
        });
        group.bench(&format!("recompile_per_step/subclock_chain/{n}"), || {
            Program::compile(black_box(&spec))
                .cursor()
                .acceptable_steps(&SolverOptions::default())
        });
    }
    for stages in [4usize, 6] {
        let spec = build_specification(&sdf_chain(stages, 2)).expect("builds");
        let compiled = Program::compile(&spec).cursor();
        group.bench(&format!("compiled/sdf_chain/{stages}"), || {
            black_box(&compiled).acceptable_steps(&SolverOptions::default())
        });
        group.bench(&format!("recompile_per_step/sdf_chain/{stages}"), || {
            Program::compile(black_box(&spec))
                .cursor()
                .acceptable_steps(&SolverOptions::default())
        });
    }
    // B5: the parallel explorer pair. One shared program (so both
    // sides hit the same warmed local-state tables); only the worker count
    // differs. The StateSpaces are byte-identical by construction.
    let mut group = group.with_iters(10);
    let program = Program::new(build_specification(&sdf_chain(6, 2)).expect("builds"));
    group.bench("explore_serial/sdf_chain/6", || {
        black_box(&program).explore(&ExploreOptions::default().with_workers(1))
    });
    group.bench("explore_parallel/sdf_chain/6", || {
        black_box(&program).explore(&ExploreOptions::default().with_workers(4))
    });
    group.finish();
}
