//! The intern-flood family (`safeweb_attack::flood`): a STOMP publisher
//! cycling novel label sets is refused once the label intern table nears
//! `WIRE_INTERN_CAP`, the table stays at or under the cap, the broker
//! keeps serving, and an honest publisher of a known label set loses
//! nothing.
//!
//! A test binary of its own: the flood fills this process's intern table
//! to the cap, after which any other test here that sent a novel label
//! set over the wire would be refused too.

use safeweb_attack::{run_intern_flood, seed_from_env, AttackRig, RigOptions};
use safeweb_core::broker::wire::WIRE_INTERN_CAP;
use safeweb_core::labels::LabelSet;

#[test]
fn intern_flood_is_refused_at_the_cap() {
    let rig = AttackRig::build(RigOptions::default());
    let before = LabelSet::interned_count();
    assert!(
        before < WIRE_INTERN_CAP / 2,
        "{before} sets before the flood"
    );
    // Enough novel sets to fill the table twice over.
    let report = run_intern_flood(&rig, 2 * WIRE_INTERN_CAP, seed_from_env());
    report.assert_bounded();
    assert_eq!(report.admitted + report.refused, report.attempts);
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
    println!(
        "intern_flood: {} attempts, {} admitted, {} refused, {} sets interned (cap {WIRE_INTERN_CAP}), {}/{} honest publishes delivered",
        report.attempts,
        report.admitted,
        report.refused,
        report.interned_after,
        report.honest_delivered,
        report.honest_sent
    );

    // The broker survived: a second flood from a fresh seed is refused
    // outright, and honest traffic still flows.
    let again = run_intern_flood(&rig, 64, seed_from_env() ^ 1);
    again.assert_bounded();
    assert_eq!(again.refused, again.attempts);
}
