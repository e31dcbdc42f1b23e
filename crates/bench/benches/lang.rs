//! Lang bench target — the textual frontend end to end: lexing +
//! parsing a generated `.mcc` place-chain spec, compiling it through
//! the ccsl/automata/engine layers, on-the-fly checking of its
//! asserted properties, the parse→print→parse round trip, and the
//! in-process CLI `check` path (the `moccml` binary minus the process
//! spawn).
//!
//! Runs on the in-repo `Instant`-based harness; emits `BENCH_lang.json`
//! at the workspace root. Before timing, the bench asserts the
//! frontend's golden contract outright: the compiled chain spec's
//! `never(last)` property is violated with the full-pipeline witness,
//! and the pretty-printed form reparses to an equal AST.

use moccml_bench::harness::BenchGroup;
use moccml_engine::ExploreOptions;
use moccml_lang::{compile, compile_str, parse_spec};
use moccml_serve::cli;
use moccml_verify::{check_props, PropStatus};
use std::fmt::Write as _;
use std::hint::black_box;

/// A chain of `n` capacity-1 places (`e0 → e1 → … → en`) woven from an
/// embedded Fig. 3 library, with a deadlock-freedom assert (holds) and
/// a `never(en)` assert (violated by the pipeline flowing end to end).
fn chain_source(n: usize) -> String {
    let mut out = String::from("spec chain {\n  events ");
    for i in 0..=n {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "e{i}");
    }
    out.push_str(";\n\n");
    out.push_str(
        "  library SDF {\n\
           constraint Place(write: event, read: event,\n\
                            pushRate: int, popRate: int,\n\
                            itsDelay: int, itsCapacity: int)\n\
           automaton PlaceDef implements Place {\n\
             var size: int = itsDelay;\n\
             initial state S0;\n\
             final state S0;\n\
             from S0 to S0 when {write} forbid {read}\n\
               guard [size <= itsCapacity - pushRate] do size += pushRate;\n\
             from S0 to S0 when {read} forbid {write}\n\
               guard [size >= popRate] do size -= popRate;\n\
           }\n\
         }\n\n",
    );
    for i in 0..n {
        let _ = writeln!(
            out,
            "  constraint p{i} = Place(e{i}, e{}, 1, 1, 0, 1);",
            i + 1
        );
    }
    let _ = writeln!(out, "\n  assert deadlock-free;");
    let _ = writeln!(out, "  assert never(e{n});");
    out.push_str("}\n");
    out
}

fn main() {
    let wide = chain_source(32);
    let deep = chain_source(8);

    // the golden claims, asserted once before timing: the textual
    // chain compiles, its liveness witness is the whole pipeline, and
    // printing round-trips
    let compiled = compile_str(&deep).expect("chain spec compiles");
    let options = ExploreOptions::default();
    // one exploration decides both properties
    let report = check_props(&compiled.program, &compiled.props, &options);
    assert_eq!(report.statuses[0], PropStatus::Holds, "deadlock-free");
    let PropStatus::Violated(ce) = &report.statuses[1] else {
        panic!("never(e8) must be violated");
    };
    assert_eq!(
        ce.schedule.len(),
        9,
        "the shortest witness flows the whole 8-place chain"
    );
    let ast = parse_spec(&deep).expect("parses");
    assert_eq!(
        parse_spec(&ast.to_text()).expect("printed form parses"),
        ast,
        "parse→print→parse round-trips"
    );

    let mut group = BenchGroup::new("lang");
    group.bench("parse/chain_32", || {
        parse_spec(black_box(&wide)).expect("parses")
    });
    group.bench("compile/chain_32", || {
        compile(black_box(&ast32())).expect("compiles")
    });
    group.bench("parse_compile/chain_32", || {
        compile_str(black_box(&wide)).expect("compiles")
    });
    group.bench("roundtrip/chain_32_print_parse", || {
        let printed = black_box(&ast32_cached()).to_text();
        parse_spec(&printed).expect("parses")
    });
    group.bench("check/chain_8_props_2", || {
        check_props(black_box(&compiled.program), &compiled.props, &options)
    });
    // the CLI end to end, in-process: read file, parse, compile,
    // per-prop check, render the report
    let spec_path = std::env::temp_dir().join("moccml-bench-chain8.mcc");
    std::fs::write(&spec_path, &deep).expect("temp spec writes");
    let args: Vec<String> = ["check", spec_path.to_str().expect("utf8")]
        .iter()
        .map(ToString::to_string)
        .collect();
    group.bench("cli_check/chain_8", || {
        let mut out = String::new();
        let code = cli::run(black_box(&args), &mut out);
        assert_eq!(code, cli::EXIT_VIOLATED);
        out
    });
    group.finish();
}

/// Memoised 32-chain AST for the compile-only bench.
fn ast32() -> moccml_lang::SpecAst {
    ast32_cached().clone()
}

fn ast32_cached() -> &'static moccml_lang::SpecAst {
    use std::sync::OnceLock;
    static AST: OnceLock<moccml_lang::SpecAst> = OnceLock::new();
    AST.get_or_init(|| parse_spec(&chain_source(32)).expect("chain spec parses"))
}
