//! A multirate signal-processing pipeline in the SDF extension:
//! static analysis (repetition vector), execution-model generation
//! through the metamodel pipeline, simulation and exploration.
//!
//! Run with: `cargo run -p moccml-bench --example sdf_pipeline`

use moccml_engine::{Engine, ExploreOptions, SafeMaxParallel};
use moccml_sdf::analysis::{is_consistent, repetition_vector, topology_matrix};
use moccml_sdf::mocc::MoccVariant;
use moccml_sdf::model_bridge::weave_specification;
use moccml_sdf::SdfGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // sampler --1:2--> decimator --1:1--> fft --4:1--> detector
    let mut graph = SdfGraph::new("sonar-pipeline");
    graph.add_agent("sampler", 0)?;
    graph.add_agent("decimator", 0)?;
    graph.add_agent("fft", 0)?;
    graph.add_agent("detector", 0)?;
    graph.connect("sampler", "decimator", 1, 2, 4, 0)?;
    graph.connect("decimator", "fft", 1, 1, 2, 0)?;
    graph.connect("fft", "detector", 4, 1, 4, 0)?;

    println!("consistent: {}", is_consistent(&graph));
    println!("topology matrix: {:?}", topology_matrix(&graph));
    println!("repetition vector: {:?}", repetition_vector(&graph)?);

    // execution model through metamodel + ECL-style mapping (Fig. 1)
    let spec = weave_specification(&graph, MoccVariant::Standard)?;
    println!(
        "\nexecution model: {} events, {} constraints",
        spec.universe().len(),
        spec.constraint_count()
    );

    // one engine session: exploration and simulation both run on the
    // same compiled execution model
    let mut engine = Engine::builder(spec).policy(SafeMaxParallel).build();
    let space = engine.explore(&ExploreOptions::default());
    println!("state space: {}", space.stats());

    let report = engine.run(20);
    println!("\n20-step as-soon-as-possible schedule:");
    println!(
        "{}",
        report
            .schedule
            .render_timing_diagram(engine.specification().universe())
    );
    let sizes: Vec<usize> = report.schedule.iter().map(|step| step.len()).collect();
    let max = sizes.iter().copied().max().unwrap_or(0);
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    println!(
        "schedule metrics: {} steps, max ∥ {max}, mean ∥ {mean:.2}",
        report.steps_taken
    );
    Ok(())
}
