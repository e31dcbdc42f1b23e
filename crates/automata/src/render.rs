//! Renderers for relation libraries: back to the textual concrete
//! syntax (round-trips through the parser) and to Graphviz DOT (the
//! graphical notation of the paper's Fig. 3).

use crate::expr::Action;
use crate::metamodel::{AutomatonDefinition, ParamKind, RelationLibrary};
use std::fmt::Write as _;

/// Pretty-prints a library in the textual concrete syntax accepted by
/// [`parse_library`](crate::parse_library); parsing the output yields
/// structurally equal declarations and definitions.
#[must_use]
pub fn library_to_text(library: &RelationLibrary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "library {} {{", library.name());
    for decl in library.declarations() {
        let params: Vec<String> = decl
            .params()
            .iter()
            .map(|(name, kind)| {
                format!(
                    "{name}: {}",
                    match kind {
                        ParamKind::Event => "event",
                        ParamKind::Int => "int",
                    }
                )
            })
            .collect();
        let _ = writeln!(out, "  constraint {}({})", decl.name(), params.join(", "));
        if let Some(def) = library.definition_for(decl.name()) {
            let _ = writeln!(
                out,
                "  automaton {} implements {} {{",
                def.name(),
                decl.name()
            );
            for v in def.variables() {
                let _ = writeln!(out, "    var {}: int = {};", v.name, v.init);
            }
            for (i, state) in def.states().iter().enumerate() {
                let mut qualifiers = String::new();
                if def.initial() == i {
                    qualifiers.push_str("initial ");
                }
                if def.finals().contains(&i) {
                    qualifiers.push_str("final ");
                }
                let _ = writeln!(out, "    {qualifiers}state {state};");
            }
            for t in def.transitions() {
                let mut line = format!(
                    "    from {} to {}",
                    def.states()[t.source],
                    def.states()[t.target]
                );
                if !t.true_triggers.is_empty() {
                    let _ = write!(line, " when {{{}}}", t.true_triggers.join(", "));
                }
                if !t.false_triggers.is_empty() {
                    let _ = write!(line, " forbid {{{}}}", t.false_triggers.join(", "));
                }
                if let Some(g) = &t.guard {
                    let _ = write!(line, " guard [{g}]");
                }
                if !t.actions.is_empty() {
                    let actions: Vec<String> = t.actions.iter().map(Action::to_string).collect();
                    let _ = write!(line, " do {}", actions.join(", "));
                }
                let _ = writeln!(out, "{line};");
            }
            let _ = writeln!(out, "  }}");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders one automaton definition as a Graphviz `digraph` in the
/// visual style of the paper's Fig. 3: states as circles (initial bold,
/// finals double), transitions labelled
/// `{trueTriggers}{falseTriggers} [guard] / actions`.
#[must_use]
pub fn automaton_to_dot(def: &AutomatonDefinition) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", def.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for (i, state) in def.states().iter().enumerate() {
        let shape = if def.finals().contains(&i) {
            "doublecircle"
        } else {
            "circle"
        };
        let style = if def.initial() == i {
            ", style=bold"
        } else {
            ""
        };
        let _ = writeln!(out, "  {state} [shape={shape}{style}];");
    }
    for t in def.transitions() {
        let mut label = format!("{{{}}}", t.true_triggers.join(","));
        let _ = write!(label, "{{{}}}", t.false_triggers.join(","));
        if let Some(g) = &t.guard {
            let _ = write!(label, "\\n[{g}]");
        }
        if !t.actions.is_empty() {
            let actions: Vec<String> = t.actions.iter().map(Action::to_string).collect();
            let _ = write!(label, "\\n/ {}", actions.join(", "));
        }
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{}\"];",
            def.states()[t.source],
            def.states()[t.target],
            label
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_library;

    const SOURCE: &str = r#"
    library L {
      constraint Gate(open: event, pass: event, limit: int)
      automaton GateDef implements Gate {
        var n: int = 2 * limit;
        initial state S;
        final state S;
        state T;
        from S to T when {open} forbid {pass} guard [n > 0] do n = n - 1;
        from T to S when {pass};
      }
    }"#;

    #[test]
    fn text_round_trips_through_the_parser() {
        let lib = parse_library(SOURCE).expect("parses");
        let rendered = library_to_text(&lib);
        let reparsed = parse_library(&rendered).expect("rendered text parses");
        assert_eq!(lib.declarations(), reparsed.declarations());
        assert_eq!(
            lib.definition_for("Gate").expect("def").as_ref(),
            reparsed.definition_for("Gate").expect("def").as_ref()
        );
    }

    #[test]
    fn dot_contains_states_and_labels() {
        let lib = parse_library(SOURCE).expect("parses");
        let dot = automaton_to_dot(lib.definition_for("Gate").expect("def"));
        assert!(dot.contains("S [shape=doublecircle, style=bold];"));
        assert!(dot.contains("T [shape=circle];"));
        assert!(dot.contains("S -> T"));
        assert!(dot.contains("{open}{pass}"));
        assert!(dot.contains("[n > 0]"));
        assert!(dot.contains("/ n = n - 1"));
    }

    #[test]
    fn sdf_library_round_trips() {
        // the embedded SDF library of the sdf crate uses every syntax
        // feature; guard the renderer against it via a local copy of
        // the Fig. 3 place automaton.
        let fig3 = r#"library SDF {
          constraint PlaceConstraint(write: event, read: event,
                                     pushRate: int, popRate: int,
                                     itsDelay: int, itsCapacity: int)
          automaton PlaceConstraintDef implements PlaceConstraint {
            var size: int = itsDelay;
            initial state S0; final state S0;
            from S0 to S0 when {write} forbid {read}
              guard [size <= itsCapacity - pushRate] do size += pushRate;
            from S0 to S0 when {read} forbid {write}
              guard [size >= popRate] do size -= popRate;
          }
        }"#;
        let lib = parse_library(fig3).expect("parses");
        let reparsed = parse_library(&library_to_text(&lib)).expect("round-trips");
        assert_eq!(
            lib.definition_for("PlaceConstraint").expect("def").as_ref(),
            reparsed
                .definition_for("PlaceConstraint")
                .expect("def")
                .as_ref()
        );
    }
}
