//! Pins the checked-in reference tables to the simulator: every entry is
//! measured afresh and must equal the checked-in value bit for bit, and
//! the covered set must equal the checked-in key set. A simulator or
//! measurement change that moves a solo result fails here, and the
//! failure prints the regenerated file to check in with it.

use std::path::Path;

const CHECKED_IN: &str = include_str!("../src/reference/tables.rs");

#[test]
fn checked_in_tables_are_the_measured_tables_bit_for_bit() {
    let fresh = copart_workloads::reference::regenerate();
    if fresh != CHECKED_IN {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reference_tables.rs");
        std::fs::write(&path, &fresh).expect("write the regenerated tables");
        panic!(
            "crates/workloads/src/reference/tables.rs is not what the simulator \
             measures; check in the regenerated file:\n\n    cp {} \
             crates/workloads/src/reference/tables.rs\n\n{fresh}",
            path.display()
        );
    }
}
