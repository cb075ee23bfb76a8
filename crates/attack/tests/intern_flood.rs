//! The intern-flood family (`safeweb_attack::flood`): a STOMP publisher
//! cycling novel label sets is refused once its connection has added
//! `CONN_INTERN_BUDGET` intern-table entries, while a fresh connection's
//! novel set is still admitted and delivered; a flood spread over enough
//! connections is refused once the label intern table nears
//! `WIRE_INTERN_CAP`, the table stays at or under the cap, the broker
//! keeps serving, and an honest publisher of a known label set loses
//! nothing.
//!
//! A test binary of its own: the flood fills this process's intern table
//! to the cap, after which any other test here that sent a novel label
//! set over the wire would be refused too.

use safeweb_attack::{run_intern_flood, seed_from_env, AttackRig, RigOptions};
use safeweb_core::broker::wire::WIRE_INTERN_CAP;
use safeweb_core::broker::CONN_INTERN_BUDGET;
use safeweb_core::labels::LabelSet;

#[test]
fn intern_flood_is_refused_at_the_cap() {
    let rig = AttackRig::build(RigOptions::default());
    let before = LabelSet::interned_count();
    assert!(
        before < WIRE_INTERN_CAP / 2,
        "{before} sets before the flood"
    );

    // One connection stops once it has added its budget of table entries
    // (each novel set adds itself and up to two projections); a fresh
    // one is still admitted.
    let one = run_intern_flood(&rig, CONN_INTERN_BUDGET, 1, seed_from_env());
    one.assert_bounded();
    let added = one.interned_after - before;
    assert!(
        added <= CONN_INTERN_BUDGET && added + 3 > CONN_INTERN_BUDGET,
        "one connection added {added} table entries"
    );
    assert_eq!(one.refused, 0, "one connection's flood met the cap");
    assert!(
        one.budget_refused > 0 && one.admitted + one.budget_refused == one.attempts,
        "one connection's flood: {} admitted, {} over budget",
        one.admitted,
        one.budget_refused
    );
    println!(
        "intern_flood: one connection: {} attempts, {} admitted ({added} table entries), {} over budget",
        one.attempts, one.admitted, one.budget_refused
    );
    assert!(
        one.fresh_delivered,
        "a fresh connection's novel set was lost"
    );

    // Enough connections to fill the table twice over reach the
    // process-wide cap.
    let connections = 2 * WIRE_INTERN_CAP / CONN_INTERN_BUDGET;
    let before = LabelSet::interned_count();
    let report = run_intern_flood(
        &rig,
        connections * CONN_INTERN_BUDGET,
        connections,
        seed_from_env() ^ 2,
    );
    report.assert_bounded();
    assert_eq!(
        report.admitted + report.refused + report.budget_refused,
        report.attempts
    );
    assert!(report.refused > 0, "no flood frame met the cap");
    assert!(
        report.admitted <= WIRE_INTERN_CAP - before,
        "{} flood sets admitted past {before} already interned",
        report.admitted
    );
    assert!(
        report.interned_after + 3 > WIRE_INTERN_CAP,
        "the flood stopped at {} sets, short of the cap",
        report.interned_after
    );
    assert!(!report.fresh_delivered, "a novel set passed a full table");
    println!(
        "intern_flood: {} attempts over {} connections, {} admitted, {} refused at the cap, {} over budget, {} sets interned (cap {WIRE_INTERN_CAP}), {}/{} honest publishes delivered",
        report.attempts,
        report.connections,
        report.admitted,
        report.refused,
        report.budget_refused,
        report.interned_after,
        report.honest_delivered,
        report.honest_sent
    );

    // The broker survived: a second flood from a fresh seed is refused
    // outright, and honest traffic still flows.
    let again = run_intern_flood(&rig, 64, 1, seed_from_env() ^ 1);
    again.assert_bounded();
    assert_eq!(again.refused, again.attempts);
}
