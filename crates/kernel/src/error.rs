//! Error type shared by the kernel and the crates built on top of it.

use std::error::Error;
use std::fmt;

/// Errors raised by kernel-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// A step was fired against a constraint whose current formula it
    /// violates.
    StepRejected {
        /// Name of the rejecting constraint.
        constraint: String,
        /// Rendering of the offending step.
        step: String,
    },
    /// A [`StateKey`](crate::StateKey) had the wrong shape for the
    /// constraint it was restored into.
    InvalidStateKey {
        /// Name of the constraint.
        constraint: String,
        /// What was wrong.
        reason: String,
    },
    /// An event id did not belong to the expected universe.
    UnknownEvent {
        /// Rendering of the event.
        event: String,
    },
    /// A specification was built inconsistently (duplicate names, …).
    InvalidSpecification {
        /// What was wrong.
        reason: String,
    },
    /// A textual schedule could not be parsed back into steps.
    ScheduleParse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A state admits more acceptable steps than a `usize` counts, so
    /// no policy can index them.
    TooManySteps {
        /// Number of independent constraint groups whose local step
        /// counts multiply past the limit.
        components: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::StepRejected { constraint, step } => {
                write!(f, "step {step} rejected by constraint `{constraint}`")
            }
            KernelError::InvalidStateKey { constraint, reason } => {
                write!(f, "invalid state key for `{constraint}`: {reason}")
            }
            KernelError::UnknownEvent { event } => {
                write!(f, "unknown event {event}")
            }
            KernelError::InvalidSpecification { reason } => {
                write!(f, "invalid specification: {reason}")
            }
            KernelError::ScheduleParse { line, reason } => {
                write!(f, "schedule parse error at line {line}: {reason}")
            }
            KernelError::TooManySteps { components } => write!(
                f,
                "the state admits more acceptable steps than fit a usize \
                 (the product of {components} independent groups' step counts)"
            ),
        }
    }
}

impl Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = KernelError::StepRejected {
            constraint: "place".into(),
            step: "{read}".into(),
        };
        assert_eq!(e.to_string(), "step {read} rejected by constraint `place`");
        let e = KernelError::InvalidSpecification {
            reason: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelError>();
    }
}
