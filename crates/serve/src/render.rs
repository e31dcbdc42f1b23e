//! The two renderers of an [`Outcome`]: the CLI's human-readable text
//! report, and the machine-readable result object shared by the
//! daemon's `result` events and the CLI's `--format json` line.

use crate::json::Json;
use crate::ops::{render_schedule, severities, CheckStatus, Outcome, Report, Witness};
use moccml_smc::{okamoto_sample_size, SmcVerdict};
use moccml_verify::Verdict;
use std::fmt::Write as _;

/// How a schedule count past `u128::MAX` renders, in text and JSON.
const PAST_U128: &str = ">=2^128";

impl Outcome {
    /// The text report, newline-terminated.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        let spec = &self.spec;
        let no_props = match &self.report {
            Report::Check(props) => props.is_empty(),
            Report::Statistical { props, .. } => props.is_empty(),
            _ => false,
        };
        if no_props {
            let _ = writeln!(
                out,
                "spec `{spec}`: no properties to check (add `assert …;` items)"
            );
            return out;
        }
        let _ = match &self.report {
            Report::Check(props) => props.iter().try_for_each(|p| {
                let (prop, states) = (&p.prop, p.states);
                match &p.status {
                    CheckStatus::Holds => {
                        writeln!(out, "{prop:<40} holds        ({states} states)")
                    }
                    CheckStatus::Violated {
                        witness: w,
                        minimized: m,
                    } => {
                        writeln!(
                            out,
                            "{prop:<40} VIOLATED     ({states} states), witness ({} steps): {}",
                            w.steps, w.schedule
                        )?;
                        writeln!(
                            out,
                            "{:<40} minimized ({} steps): {}",
                            "", m.steps, m.schedule
                        )
                    }
                    CheckStatus::Undetermined => writeln!(
                        out,
                        "{prop:<40} undetermined ({states} states explored, bound hit)"
                    ),
                }
            }),
            Report::Explore { stats, schedules } => {
                let _ = writeln!(out, "spec `{spec}`: {stats}");
                let [s1, s2, s4, s8] = schedules
                    .map(|count| count.map_or_else(|| PAST_U128.to_owned(), |n| n.to_string()));
                writeln!(out, "schedules of length 1/2/4/8: {s1}/{s2}/{s4}/{s8}")
            }
            Report::Simulate {
                policy,
                run,
                universe,
            } => {
                let deadlocked = if run.deadlocked { ", DEADLOCKED" } else { "" };
                let steps = run.steps_taken;
                let _ = writeln!(
                    out,
                    "spec `{spec}`, policy {policy}: {steps} step(s){deadlocked}"
                );
                let diagram = run.schedule.render_timing_diagram(universe);
                if !diagram.is_empty() {
                    let _ = writeln!(out, "{diagram}");
                }
                let schedule = render_schedule(&run.schedule, universe);
                writeln!(out, "schedule: {schedule}")
            }
            Report::Conformance { steps, verdict } => match verdict {
                Verdict::Conforms => writeln!(out, "trace conforms ({steps} steps replay cleanly)"),
                Verdict::Violation { step, violated } => {
                    writeln!(
                        out,
                        "trace VIOLATES at step {step}: constraints {violated:?}"
                    )
                }
            },
            Report::Statistical { options, props } => {
                let (epsilon, delta) = (options.epsilon, options.delta);
                let _ = match options.prob_threshold {
                    Some(threshold) => writeln!(
                        out,
                        "statistical check (SPRT): threshold {threshold}, epsilon {epsilon}, \
                         delta {delta}"
                    ),
                    None => writeln!(
                        out,
                        "statistical check: epsilon {epsilon}, delta {delta} ({:.1}% \
                         confidence), {} traces",
                        (1.0 - delta) * 100.0,
                        okamoto_sample_size(epsilon, delta)
                    ),
                };
                props.iter().try_for_each(|p| {
                    let (r, label) = (&p.report, smc_labels(p.report.verdict).0);
                    writeln!(
                        out,
                        "{:<40} {label:<12} p = {:.4} in [{:.4}, {:.4}] ({} traces, {} violations)",
                        p.prop, r.estimate, r.ci_low, r.ci_high, r.traces, r.violations
                    )?;
                    match &p.witness {
                        Some(w) => writeln!(
                            out,
                            "{:<40} witness (minimized, {} steps): {}",
                            "", w.steps, w.schedule
                        ),
                        None => Ok(()),
                    }
                })
            }
            Report::Lint { diagnostics, .. } => {
                out.push_str(&moccml_analyze::render_text(spec, diagnostics));
                let (errors, warnings) = severities(diagnostics);
                let findings = diagnostics.len();
                writeln!(
                    out,
                    "{spec}: {findings} finding(s): {errors} error(s), {warnings} warning(s)"
                )
            }
        };
        if let Some(stats) = &self.stats {
            let (rate, ms) = (stats.states_per_sec, stats.elapsed_ms);
            let _ = write!(out, "throughput: {rate:.0} states/sec over {ms:.1} ms");
            if let Some(m) = &stats.explore {
                let _ = write!(
                    out,
                    "; peak frontier {}; interner: {} keys, occupancy {:.3}",
                    m.peak, m.interned, m.occupancy
                );
            }
            out.push('\n');
        }
        out
    }

    /// The CLI's `--format json` output: the [`to_json`](Outcome::to_json)
    /// object on one line — except `lint`, which prints the analyzer's
    /// own diagnostics array.
    pub(crate) fn json_line(&self) -> String {
        match &self.report {
            Report::Lint { diagnostics, .. } => {
                moccml_analyze::render_json(&self.spec, diagnostics)
            }
            _ => self.to_json().to_line() + "\n",
        }
    }

    /// The machine-readable result object — a daemon `result` payload.
    /// The opt-in, timing-dependent `stats` member comes last and is
    /// never part of a byte-compared payload.
    pub(crate) fn to_json(&self) -> Json {
        let failed = Json::Bool(self.failed());
        let mut members = vec![
            ("kind", Json::str(self.kind())),
            ("spec", Json::str(&self.spec)),
        ];
        match &self.report {
            Report::Check(props) => {
                let properties = props.iter().map(|p| {
                    let status = match p.status {
                        CheckStatus::Holds => "holds",
                        CheckStatus::Violated { .. } => "violated",
                        CheckStatus::Undetermined => "undetermined",
                    };
                    let mut row = vec![
                        ("prop", Json::str(&p.prop)),
                        ("status", Json::str(status)),
                        ("states", Json::int(p.states)),
                    ];
                    if let CheckStatus::Violated { witness, minimized } = &p.status {
                        row.push(("witness", witness_json(witness)));
                        row.push(("minimized", witness_json(minimized)));
                    }
                    Json::obj(row)
                });
                members.push(("properties", Json::Arr(properties.collect())));
                members.push(("violated", failed));
            }
            Report::Explore { stats, schedules } => {
                let schedules = [1usize, 2, 4, 8].iter().zip(schedules).map(|(len, count)| {
                    let count = count.map_or_else(|| Json::str(PAST_U128), Json::u128);
                    Json::obj([("length", Json::int(*len)), ("count", count)])
                });
                members.extend([
                    ("states", Json::int(stats.states)),
                    ("transitions", Json::int(stats.transitions)),
                    ("deadlocks", Json::int(stats.deadlocks)),
                    ("max_parallelism", Json::int(stats.max_step_parallelism)),
                    ("mean_branching", Json::Float(stats.mean_branching)),
                    ("truncated", Json::Bool(stats.truncated)),
                    ("schedules", Json::Arr(schedules.collect())),
                ]);
            }
            Report::Simulate {
                policy,
                run,
                universe,
            } => members.extend([
                ("policy", Json::str(policy)),
                ("steps_taken", Json::int(run.steps_taken)),
                ("deadlocked", Json::Bool(run.deadlocked)),
                (
                    "schedule",
                    Json::Str(render_schedule(&run.schedule, universe)),
                ),
            ]),
            Report::Conformance { steps, verdict } => {
                members.push(("steps", Json::int(*steps)));
                match verdict {
                    Verdict::Conforms => members.push(("verdict", Json::str("conforms"))),
                    Verdict::Violation { step, violated } => members.extend([
                        ("verdict", Json::str("violation")),
                        ("step", Json::int(*step)),
                        (
                            "violated",
                            Json::Arr(violated.iter().map(|c| Json::str(c)).collect()),
                        ),
                    ]),
                }
            }
            Report::Statistical { options, props } => {
                let properties = props.iter().map(|p| {
                    let r = &p.report;
                    let mut row = vec![
                        ("prop", Json::str(&p.prop)),
                        ("verdict", Json::str(smc_labels(r.verdict).1)),
                        ("traces", Json::int(r.traces)),
                        ("violations", Json::int(r.violations)),
                        ("estimate", Json::Float(r.estimate)),
                        ("ci_low", Json::Float(r.ci_low)),
                        ("ci_high", Json::Float(r.ci_high)),
                    ];
                    row.extend(r.witness_trace.map(|i| ("witness_trace", Json::int(i))));
                    row.extend(p.witness.as_ref().map(|w| ("witness", witness_json(w))));
                    Json::obj(row)
                });
                let (epsilon, delta) = (options.epsilon, options.delta);
                members.extend([
                    ("epsilon", Json::Float(epsilon)),
                    ("delta", Json::Float(delta)),
                    ("confidence", Json::Float(1.0 - delta)),
                ]);
                members.extend(match options.prob_threshold {
                    Some(threshold) => [
                        ("mode", Json::str("sequential")),
                        ("threshold", Json::Float(threshold)),
                    ],
                    None => [
                        ("mode", Json::str("fixed-sample")),
                        ("samples", Json::int(okamoto_sample_size(epsilon, delta))),
                    ],
                });
                members.push(("properties", Json::Arr(properties.collect())));
                members.push(("violated", failed));
            }
            Report::Lint { diagnostics, .. } => {
                // the analyzer's own JSON rendering, re-parsed into the
                // protocol's value tree so the diagnostics array is
                // embedded (not double-encoded as a string)
                let rendered = moccml_analyze::render_json(&self.spec, diagnostics);
                let parsed = Json::parse(&rendered).expect("the analyzer renders valid JSON");
                let (errors, warnings) = severities(diagnostics);
                members.extend([
                    ("errors", Json::int(errors)),
                    ("warnings", Json::int(warnings)),
                    ("failed", failed),
                    ("diagnostics", parsed),
                ]);
            }
        }
        if let Some(stats) = &self.stats {
            let mut block = vec![
                ("states_per_sec", Json::Float(stats.states_per_sec)),
                ("elapsed_ms", Json::Float(stats.elapsed_ms)),
            ];
            if let Some(m) = &stats.explore {
                block.extend([
                    ("peak_frontier", Json::int(m.peak)),
                    ("interned", Json::int(m.interned)),
                    ("interner_occupancy", Json::Float(m.occupancy)),
                ]);
            }
            members.push(("stats", Json::obj(block)));
        }
        Json::obj(members)
    }

    /// The result object's `kind`.
    fn kind(&self) -> &'static str {
        match self.report {
            Report::Check(_) => "check",
            Report::Explore { .. } => "explore",
            Report::Simulate { .. } => "simulate",
            Report::Conformance { .. } => "conformance",
            Report::Statistical { .. } => "smc",
            Report::Lint { .. } => "lint",
        }
    }
}

/// A statistical verdict's text and JSON labels.
fn smc_labels(verdict: SmcVerdict) -> (&'static str, &'static str) {
    match verdict {
        SmcVerdict::Estimated => ("estimated", "estimated"),
        SmcVerdict::AboveThreshold => ("ABOVE", "above-threshold"),
        SmcVerdict::BelowThreshold => ("below", "below-threshold"),
        SmcVerdict::Undecided => ("undecided", "undecided"),
        SmcVerdict::Cancelled => ("cancelled", "cancelled"),
    }
}

fn witness_json(witness: &Witness) -> Json {
    Json::obj([
        ("steps", Json::int(witness.steps)),
        ("schedule", Json::str(&witness.schedule)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_engine::StateSpaceStats;

    #[test]
    fn schedule_counts_past_u128_render_as_a_bound() {
        let outcome = Outcome {
            spec: "wide".to_owned(),
            report: Report::Explore {
                stats: StateSpaceStats {
                    states: 1,
                    transitions: 131_071,
                    deadlocks: 0,
                    max_step_parallelism: 17,
                    mean_branching: 131_071.0,
                    truncated: false,
                },
                schedules: [Some(131_071), Some(u128::MAX), None, None],
            },
            stats: None,
        };
        let text = outcome.to_text();
        assert!(
            text.ends_with(&format!(
                "schedules of length 1/2/4/8: 131071/{}/>=2^128/>=2^128\n",
                u128::MAX
            )),
            "{text}"
        );
        let json = outcome.to_json();
        let counts: Vec<_> = json
            .get("schedules")
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|row| row.get("count").cloned().expect("count"))
            .collect();
        assert_eq!(
            counts,
            [
                Json::Int(131_071),
                Json::Str(u128::MAX.to_string()),
                Json::str(">=2^128"),
                Json::str(">=2^128"),
            ]
        );
    }
}
