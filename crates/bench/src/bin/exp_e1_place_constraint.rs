//! E1 — Fig. 3: behaviour of the `PlaceConstraint` automaton.
//!
//! Regenerates the acceptable-step table of the place automaton across
//! its occupancy range: `read` blocked without tokens, `write` blocked
//! without room, `size` initialised to `itsDelay`.

use moccml_bench::experiments::{e1_place, table_header, table_row};
use moccml_kernel::{Constraint, Step};

fn main() {
    let capacity = 3i64;
    let delay = 1i64;
    let (place, w, r) = e1_place(capacity, delay);
    let mut local = place.initial();

    println!("# E1 — Fig. 3 PlaceConstraint (capacity={capacity}, delay={delay}, rates=1)");
    println!();
    table_header(&["size", "write ok", "read ok", "write∧read ok"]);
    // sweep the occupancy by writing up to capacity (size starts at delay)
    for size in delay..=capacity {
        let f = place.formula(&local);
        table_row(&[
            size.to_string(),
            f.eval(&Step::from_events([w])).to_string(),
            f.eval(&Step::from_events([r])).to_string(),
            f.eval(&Step::from_events([w, r])).to_string(),
        ]);
        if size < capacity {
            local = place.next(&local, &Step::from_events([w]));
        }
    }
    println!();
    println!("Expected shape: write ok until size=capacity, read ok from size≥1,");
    println!("write∧read never (Fig. 3 has no joint transition).");
}
