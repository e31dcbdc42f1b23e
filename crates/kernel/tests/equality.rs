//! `Eq`, `Ord` and `Hash` of [`Step`] and [`StateKey`] agree.
//!
//! Both types compare their tails by hand (an empty tail is equal
//! without a slice comparison) while `Ord` is derived, so these
//! properties pin the three to one another on random values: steps
//! over events past 64, steps that lost their high events to removals
//! (a trimmed but allocated tail), and empty state keys.

use moccml_kernel::{EventId, StateKey, Step};
use moccml_testkit::{cases, prop_assert_eq, TestRng};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Few enough events that two random steps are often equal, on both
/// sides of the 64-event inline word and past the second word.
const EVENTS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 200];

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A step built by inserting random events, then removing some, so a
/// high event may leave an allocated but empty tail behind.
fn step(rng: &mut TestRng) -> Step {
    let mut step = Step::new();
    for _ in 0..rng.usize_in(0..5) {
        step.insert(EventId::from_index(*rng.choice(&EVENTS)));
    }
    for _ in 0..rng.usize_in(0..3) {
        step.remove(EventId::from_index(*rng.choice(&EVENTS)));
    }
    step
}

/// A key of 0 to 2 values from a small range, collected at once or
/// pushed one by one.
fn state_key(rng: &mut TestRng) -> StateKey {
    let values = rng.vec_of(0..3, |rng| rng.u64_below(2) as i64);
    if rng.bool() {
        return StateKey::from_values(values);
    }
    let mut key = StateKey::new();
    for v in values {
        key.push(v);
    }
    key
}

/// `a == b` exactly when `a.cmp(&b)` is `Equal`, and equal values hash
/// alike.
fn consistent<T: Ord + Hash + std::fmt::Debug>(a: &T, b: &T) -> Result<(), String> {
    prop_assert_eq!(a == b, a.cmp(b) == Ordering::Equal);
    prop_assert_eq!(a == b, b == a);
    if a == b {
        prop_assert_eq!(hash_of(a), hash_of(b));
    }
    Ok(())
}

#[test]
fn step_equality_agrees_with_order_and_hash() {
    cases(512).run("step Eq ⇔ Ord::Equal, Eq ⇒ same hash", |rng| {
        let (a, b) = (step(rng), step(rng));
        consistent(&a, &b)?;
        // the same set rebuilt in reverse insertion order
        let rebuilt: Step = a.iter().collect::<Vec<_>>().into_iter().rev().collect();
        prop_assert_eq!(&rebuilt, &a);
        consistent(&a, &rebuilt)
    });
}

#[test]
fn state_key_equality_agrees_with_order_and_hash() {
    cases(512).run("state key Eq ⇔ Ord::Equal, Eq ⇒ same hash", |rng| {
        let (a, b) = (state_key(rng), state_key(rng));
        consistent(&a, &b)?;
        consistent(&a, &StateKey::from_values(a.values().iter().copied()))
    });
}

#[test]
fn empty_values_are_equal_however_they_were_built() {
    let mut trimmed = Step::from_events([EventId::from_index(1), EventId::from_index(200)]);
    trimmed.remove(EventId::from_index(200));
    let fresh = Step::from_events([EventId::from_index(1)]);
    consistent(&trimmed, &fresh).unwrap();
    assert_eq!(trimmed, fresh);
    // an empty key over an allocated buffer against a dangling one
    let allocated = StateKey::from_values(Vec::with_capacity(4));
    consistent(&allocated, &StateKey::new()).unwrap();
    assert_eq!(allocated, StateKey::new());
    assert_ne!(StateKey::new(), StateKey::from_values([0]));
}
