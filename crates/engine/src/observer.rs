//! [`Observer`]: streaming hooks over an [`Engine`](crate::Engine)
//! session.
//!
//! The seed exported artefacts *post-hoc*: run a simulation, keep the
//! whole [`Schedule`](moccml_kernel::Schedule), then render it. An
//! observer instead receives every fired step as it happens, so VCD
//! waveforms ([`VcdObserver`]) stream during the run — no second pass,
//! no buffered schedule needed for arbitrarily long sessions.
//!
//! [`VcdObserver`] is a cheap clone sharing one buffer
//! (`Arc<Mutex<_>>`): register one clone with the engine builder and
//! keep the other to read the result after (or during) the run.

use moccml_kernel::{Specification, Step};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Hooks called by the engine as a session progresses. All methods have
/// empty defaults; implement only what you need.
pub trait Observer: Send {
    /// Called once when the session is built (and again after a
    /// [`reset`](crate::Engine::reset)), with the driven specification.
    fn on_session_start(&mut self, _spec: &Specification) {}

    /// Called after step number `index` (0-based) was fired.
    fn on_step(&mut self, _index: usize, _step: &Step) {}
}

/// VCD identifier code for the event with the given index: printable
/// ASCII starting at `'!'`, base 94 — shared between the streaming
/// observer and the post-hoc exporter so both emit identical files.
pub(crate) fn vcd_code(index: usize) -> String {
    let mut n = index;
    let mut s = String::new();
    loop {
        s.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

#[derive(Debug, Default)]
struct VcdBuffer {
    header: String,
    body: String,
    steps: usize,
}

/// Streams a session as a Value Change Dump (IEEE 1364): one 1-bit wire
/// per event, pulsed high for one half-timestep at each occurrence.
/// Produces byte-identical output to
/// [`schedule_to_vcd`](crate::schedule_to_vcd) over the same schedule,
/// without ever materialising the schedule.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{Engine, Lexicographic, VcdObserver};
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
///
/// let vcd = VcdObserver::new("alt");
/// let mut engine = Engine::builder(spec)
///     .policy(Lexicographic)
///     .observer(vcd.clone())
///     .build();
/// engine.run(4);
/// assert!(vcd.render().contains("$var wire 1"));
/// ```
#[derive(Debug, Clone)]
pub struct VcdObserver {
    module: String,
    buffer: Arc<Mutex<VcdBuffer>>,
}

impl VcdObserver {
    /// A streaming VCD recorder labelling its scope `module`.
    #[must_use]
    pub fn new(module: &str) -> Self {
        VcdObserver {
            module: module.to_owned(),
            buffer: Arc::new(Mutex::new(VcdBuffer::default())),
        }
    }

    /// The VCD text recorded so far, closed with the final timestamp.
    /// Can be called mid-run; later steps keep appending.
    #[must_use]
    pub fn render(&self) -> String {
        let buf = self.buffer.lock().expect("observer buffer lock");
        format!("{}{}#{}\n", buf.header, buf.body, 2 * buf.steps)
    }
}

impl Observer for VcdObserver {
    fn on_session_start(&mut self, spec: &Specification) {
        let mut buf = self.buffer.lock().expect("observer buffer lock");
        *buf = VcdBuffer::default();
        let out = &mut buf.header;
        let _ = writeln!(out, "$date MoCCML reproduction $end");
        let _ = writeln!(out, "$version moccml-engine $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        let _ = writeln!(out, "$scope module {} $end", self.module);
        for (id, name) in spec.universe().iter_named() {
            let _ = writeln!(
                out,
                "$var wire 1 {} {} $end",
                vcd_code(id.index()),
                name.replace(' ', "_")
            );
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for id in spec.universe().iter() {
            let _ = writeln!(out, "0{}", vcd_code(id.index()));
        }
        let _ = writeln!(out, "$end");
    }

    fn on_step(&mut self, index: usize, step: &Step) {
        let mut buf = self.buffer.lock().expect("observer buffer lock");
        let out = &mut buf.body;
        let _ = writeln!(out, "#{}", 2 * index);
        for id in step.iter() {
            let _ = writeln!(out, "1{}", vcd_code(id.index()));
        }
        let _ = writeln!(out, "#{}", 2 * index + 1);
        for id in step.iter() {
            let _ = writeln!(out, "0{}", vcd_code(id.index()));
        }
        buf.steps = buf.steps.max(index + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::export::schedule_to_vcd;
    use crate::policy::Lexicographic;
    use moccml_ccsl::Alternation;
    use moccml_kernel::Universe;

    fn alternating() -> Specification {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        spec
    }

    #[test]
    fn streaming_vcd_matches_posthoc_export() {
        let spec = alternating();
        let vcd = VcdObserver::new("m");
        let mut engine = Engine::builder(spec)
            .policy(Lexicographic)
            .observer(vcd.clone())
            .build();
        let report = engine.run(6);
        let posthoc = schedule_to_vcd(&report.schedule, engine.specification().universe(), "m");
        assert_eq!(vcd.render(), posthoc);
    }

    #[test]
    fn vcd_render_is_valid_on_the_empty_run() {
        let vcd = VcdObserver::new("m");
        // never attached to an engine: header empty, trailing timestamp
        assert_eq!(vcd.render(), "#0\n");
    }
}
