//! Layout pins for the per-server broker state.
//!
//! Every round snapshots one `ServerRecord` per server (104 400 at the
//! paper's region size) and walks the copy, so the record's size is a
//! fleet round's cost. EXPERIMENTS *Half a cache line per server* measured
//! the 80 → 32 byte record; a field that re-inflates it fails here with
//! the reason.

use std::mem::size_of;

use ras::broker::{ReservationId, ServerRecord};

#[test]
fn server_record_fits_half_a_cache_line() {
    assert!(
        size_of::<ServerRecord>() <= 32,
        "ServerRecord is {} bytes, over 32: every round copies and walks one per server \
         (EXPERIMENTS \"Half a cache line per server\"); keep rare state such as the \
         unavailability event behind a pointer",
        size_of::<ServerRecord>()
    );
}

#[test]
fn optional_reservation_id_is_four_bytes() {
    assert_eq!(
        size_of::<Option<ReservationId>>(),
        4,
        "Option<ReservationId> must use the identifier's niche: a record holds three \
         (EXPERIMENTS \"Half a cache line per server\")"
    );
}
