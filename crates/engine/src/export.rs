//! Exporters: schedules as VCD waveforms, state spaces as Graphviz DOT.
//!
//! The paper positions MoCCML in the design-automation flow; these
//! exporters connect the engine to the standard EDA viewers: a
//! [`schedule_to_vcd`] dump opens in GTKWave, a [`state_space_to_dot`]
//! graph renders with Graphviz.

use crate::explorer::StateSpace;
use crate::observer::vcd_code;
use moccml_kernel::{Schedule, Universe};
use std::fmt::Write as _;

/// Renders a schedule as a Value Change Dump (IEEE 1364): one 1-bit
/// wire per event, pulsed high for one half-timestep at each
/// occurrence.
///
/// # Example
///
/// ```
/// use moccml_engine::schedule_to_vcd;
/// use moccml_kernel::{Schedule, Step, Universe};
/// let mut u = Universe::new();
/// let a = u.event("a");
/// let sched: Schedule = vec![Step::from_events([a]), Step::new()].into_iter().collect();
/// let vcd = schedule_to_vcd(&sched, &u, "demo");
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("$enddefinitions"));
/// ```
#[must_use]
pub fn schedule_to_vcd(schedule: &Schedule, universe: &Universe, module: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date MoCCML reproduction $end");
    let _ = writeln!(out, "$version moccml-engine $end");
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module {module} $end");
    // VCD identifier codes: printable ASCII starting at '!' (shared
    // with the streaming `VcdObserver` so both emit identical files)
    let code = vcd_code;
    for (id, name) in universe.iter_named() {
        let _ = writeln!(
            out,
            "$var wire 1 {} {} $end",
            code(id.index()),
            name.replace(' ', "_")
        );
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    let _ = writeln!(out, "$dumpvars");
    for id in universe.iter() {
        let _ = writeln!(out, "0{}", code(id.index()));
    }
    let _ = writeln!(out, "$end");
    for (t, step) in schedule.iter().enumerate() {
        let _ = writeln!(out, "#{}", 2 * t);
        for id in step.iter() {
            let _ = writeln!(out, "1{}", code(id.index()));
        }
        let _ = writeln!(out, "#{}", 2 * t + 1);
        for id in step.iter() {
            let _ = writeln!(out, "0{}", code(id.index()));
        }
    }
    let _ = writeln!(out, "#{}", 2 * schedule.len());
    out
}

/// Escapes a string for use inside a double-quoted DOT string: quotes
/// and backslashes would otherwise terminate the label (or smuggle
/// Graphviz escapes) and produce an invalid or misleading graph.
fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders an explored state space as a Graphviz `digraph`: states are
/// nodes (deadlocks drawn as double circles), transitions are edges
/// labelled with the step's event names. Names are escaped, so hostile
/// universes (quotes or backslashes in event names) still yield valid
/// DOT.
#[must_use]
pub fn state_space_to_dot(space: &StateSpace, universe: &Universe, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape_dot(name));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    for (i, key) in space.states().iter().enumerate() {
        let shape = if space.graph().is_deadlock(i) {
            "doublecircle, color=red"
        } else if i == space.initial() {
            "circle, style=bold"
        } else {
            "circle"
        };
        let _ = writeln!(
            out,
            "  s{i} [shape={shape}, label=\"s{i}\\n{}\"];",
            escape_dot(&key.to_string())
        );
    }
    for (src, step, dst) in space.transitions() {
        let label = step
            .iter()
            .map(|e| escape_dot(universe.name(e)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  s{src} -> s{dst} [label=\"{label}\"];");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::ExploreOptions;
    use crate::program::Program;
    use moccml_ccsl::{Alternation, Precedence};
    use moccml_kernel::{Specification, Step};

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    #[test]
    fn vcd_pulses_every_occurrence() {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        let sched: Schedule = vec![Step::from_events([a]), Step::from_events([a, b])]
            .into_iter()
            .collect();
        let vcd = schedule_to_vcd(&sched, &u, "m");
        assert!(vcd.contains("$var wire 1 ! a $end"));
        assert!(vcd.contains("$var wire 1 \" b $end"));
        // a pulses twice, b once
        assert_eq!(vcd.matches("\n1!").count(), 2);
        assert_eq!(vcd.matches("\n1\"").count(), 1);
        // timestamps 0..4 present
        assert!(vcd.contains("#0\n") && vcd.contains("#3\n"));
    }

    #[test]
    fn vcd_identifier_codes_are_unique_beyond_94_events() {
        let mut u = Universe::new();
        for i in 0..100 {
            u.event(&format!("e{i}"));
        }
        let vcd = schedule_to_vcd(&Schedule::new(), &u, "m");
        let ids: Vec<&str> = vcd
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).expect("code column"))
            .collect();
        let unique: std::collections::HashSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), 100);
    }

    #[test]
    fn dot_marks_deadlocks_and_initial() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("d", u.clone());
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let space = explore(&spec, &ExploreOptions::default());
        let dot = state_space_to_dot(&space, &u, "dead");
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("digraph \"dead\""));
    }

    #[test]
    fn dot_escapes_hostile_event_names() {
        // names with quotes and backslashes must not break out of the
        // label strings
        let mut u = Universe::new();
        let (a, b) = (u.event("ev\"il"), u.event("back\\slash"));
        let mut spec = Specification::new("hostile", u.clone());
        spec.add_constraint(Box::new(Alternation::new("x", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        let dot = state_space_to_dot(&space, &u, "na\"me");
        assert!(dot.contains("digraph \"na\\\"me\""));
        assert!(dot.contains("label=\"ev\\\"il\""));
        assert!(dot.contains("label=\"back\\\\slash\""));
        // every label's quotes are balanced: no line has a bare quote
        // that terminates the attribute early
        for line in dot.lines().filter(|l| l.contains("label=")) {
            let unescaped = line.replace("\\\\", "").replace("\\\"", "");
            let quotes = unescaped.matches('"').count();
            assert_eq!(quotes % 2, 0, "unbalanced quotes in: {line}");
        }
    }

    #[test]
    fn dot_labels_edges_with_event_names() {
        let mut u = Universe::new();
        let (a, b) = (u.event("go"), u.event("done"));
        let mut spec = Specification::new("alt", u.clone());
        spec.add_constraint(Box::new(Alternation::new("x", a, b)));
        let space = explore(&spec, &ExploreOptions::default());
        let dot = state_space_to_dot(&space, &u, "alt");
        assert!(dot.contains("label=\"go\""));
        assert!(dot.contains("label=\"done\""));
    }
}
