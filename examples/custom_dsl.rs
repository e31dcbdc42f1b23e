//! MoCCML is DSL-agnostic: this example defines a *different* DSL — a
//! tiny request/grant bus-arbitration language — gives it a concurrency
//! model with a fresh constraint automaton, weaves it through the
//! metamodel pipeline and analyses a model. No SDF involved: the point
//! of the paper is that the MoCC meta-language adapts to the designer's
//! own concepts.
//!
//! Run with: `cargo run -p moccml-bench --example custom_dsl`

use moccml_automata::parse_library;
use moccml_ccsl::Exclusion;
use moccml_engine::{Engine, ExploreOptions, Random};
use moccml_kernel::Constraint;
use moccml_metamodel::{
    weave, ArgExpr, AttrType, ConstraintRegistry, MappingSpec, MetaClass, Metamodel, Model,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. abstract syntax: a Bus with Master devices
    let mut mm = Metamodel::new("BusDSL");
    mm.add_class(MetaClass::new("Bus"))?;
    mm.add_class(
        MetaClass::new("Master")
            .with_attr("maxPending", AttrType::Int)
            .with_ref("bus", "Bus", false),
    )?;
    mm.validate()?;

    // 2. the concurrency concern: a handshake automaton per master —
    //    requests and grants alternate, with a bounded pending window
    let library = parse_library(
        r#"
        library BusMoCC {
          constraint Handshake(request: event, grant: event, maxPending: int)
          automaton HandshakeDef implements Handshake {
            var pending: int = 0;
            initial state S;
            final state S;
            from S to S when {request} forbid {grant}
              guard [pending < maxPending] do pending += 1;
            from S to S when {grant} forbid {request}
              guard [pending >= 1] do pending -= 1;
          }
        }"#,
    )?;
    let mut registry = ConstraintRegistry::new();
    registry.add_library(Arc::new(library));
    // grants are serialized on the bus: a native n-ary exclusion
    registry.add_native("GrantExclusion", |name, events, _| {
        if events.len() < 2 {
            return Err("GrantExclusion needs at least two events".into());
        }
        Ok(Box::new(Exclusion::new(name, events.iter().copied())) as Box<dyn Constraint>)
    });

    // 3. the mapping: events in the context of Master, one Handshake
    //    invariant per master
    let mapping = MappingSpec::new()
        .def_event("Master", "request")
        .def_event("Master", "grant")
        .def_invariant(
            "Master",
            "HandshakeProtocol",
            "Handshake",
            vec![
                ArgExpr::event(Vec::<String>::new(), "request"),
                ArgExpr::event(Vec::<String>::new(), "grant"),
                ArgExpr::attr(Vec::<String>::new(), "maxPending"),
            ],
        );

    // 4. a model: one bus, three masters with different windows
    let mut model = Model::new(Arc::new(mm));
    let bus = model.add_object("Bus", "axi")?;
    for (name, window) in [("cpu", 2), ("dma", 1), ("gpu", 1)] {
        let m = model.add_object("Master", name)?;
        model.set_int(m, "maxPending", window)?;
        model.add_link(m, "bus", bus)?;
    }

    // 5. weave, then add the bus-level grant exclusion manually
    let mut spec = weave(&model, &mapping, &registry)?;
    let grants: Vec<_> = ["cpu.grant", "dma.grant", "gpu.grant"]
        .iter()
        .map(|n| spec.universe().lookup(n).expect("woven event"))
        .collect();
    spec.add_constraint(Box::new(Exclusion::new("axi.grantSerialization", grants)));

    // 6. analyse: one session drives exploration and simulation on
    //    the same compiled execution model
    let mut engine = Engine::builder(spec).policy(Random::new(7)).build();
    let space = engine.explore(&ExploreOptions::default());
    println!("BusDSL execution model: {}", space.stats());
    let count = space.count_schedules(4);
    let count = count.map_or_else(|| ">=2^128".to_owned(), |n| n.to_string());
    println!("schedules of length 4: {count}");

    let report = engine.run(12);
    println!("\n12-step random run:");
    println!(
        "{}",
        report
            .schedule
            .render_timing_diagram(engine.specification().universe())
    );
    Ok(())
}
