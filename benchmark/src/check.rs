//! The correctness pass, run after the measured slices and outside every
//! timing: the program's outputs are compared with an oracle computed
//! from the registry and from what the generator sent.

use std::collections::{BTreeSet, HashMap};

use safeweb_json::Value;
use safeweb_labels::LabelSet;
use safeweb_mdt::labels::mdt_label;
use safeweb_relstore::CellValue;

use crate::gen::{mdt_name, request_bytes, Route, MDTS, PATIENTS_PER_MDT};
use crate::rig::Rig;
use crate::wire::{find, HttpConn};

/// Case ids a front page lists, in page order: the first cell of every
/// table row.
fn listed_cases(page: &[u8]) -> Vec<i64> {
    const ROW: &[u8] = b"<tr><td>";
    let mut ids = Vec::new();
    let mut rest = page;
    while let Some(at) = find(rest, ROW) {
        rest = &rest[at + ROW.len()..];
        let end = find(rest, b"</td>").unwrap_or(0);
        if let Some(id) = std::str::from_utf8(&rest[..end])
            .ok()
            .and_then(|s| s.parse().ok())
        {
            ids.push(id);
        }
    }
    ids
}

/// Everything wrong with the run's outputs; empty means correct.
pub fn verify(rig: &Rig, acked: &HashMap<usize, u64>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut conn = match HttpConn::open(&rig.http_addr()) {
        Ok(conn) => conn,
        Err(e) => return vec![format!("cannot reach the frontend: {e}")],
    };
    let mdts = rig.portal.mdts();
    if mdts.len() != MDTS {
        problems.push(format!(
            "registry has {} MDTs, generator assumes {MDTS}",
            mdts.len()
        ));
    }

    for (k, mdt) in mdts.iter().enumerate() {
        if mdt.name != mdt_name(k) {
            problems.push(format!(
                "MDT {k} is named {}, generator assumes {}",
                mdt.name,
                mdt_name(k)
            ));
            continue;
        }
        // Oracle: the MDT's patients, straight from the registry.
        let expected: BTreeSet<i64> = rig
            .portal
            .registry()
            .select_eq("patients", "mdt_id", &CellValue::Int(mdt.id))
            .unwrap_or_default()
            .iter()
            .filter_map(|row| row.int("id"))
            .collect();
        match conn.request(&request_bytes(Route::Page, k, k)) {
            Ok(reply) if reply.status == 200 => {
                let listed = listed_cases(reply.body);
                let distinct: BTreeSet<i64> = listed.iter().copied().collect();
                if listed.len() != PATIENTS_PER_MDT || distinct != expected {
                    problems.push(format!(
                        "front page of {} lists {} rows ({} distinct), registry has {}",
                        mdt.name,
                        listed.len(),
                        distinct.len(),
                        expected.len()
                    ));
                }
            }
            Ok(reply) => problems.push(format!(
                "front page of {}: status {}",
                mdt.name, reply.status
            )),
            Err(e) => problems.push(format!("front page of {}: {e}", mdt.name)),
        }
        // One cross-MDT probe per account: the neighbour's front page
        // must be refused and leak no row. (The neighbour's *metrics* are
        // readable by design: same-region aggregates, policy P1.)
        let other = (k + 1) % MDTS;
        match conn.request(&request_bytes(Route::Page, k, other)) {
            Ok(reply) if reply.status == 200 || find(reply.body, b"<tr><td>").is_some() => {
                problems.push(format!(
                    "{} read the front page of {} (status {})",
                    mdt.name,
                    mdt_name(other),
                    reply.status
                ));
            }
            Ok(_) => {}
            Err(e) => problems.push(format!("cross-MDT probe by {}: {e}", mdt.name)),
        }
    }

    // Every acknowledged update is in the replica, merged into its case
    // record and labelled with the producing MDT's label, nothing else.
    for (&case, &marker) in acked {
        let mdt = mdt_name((case - 1) / PATIENTS_PER_MDT);
        let id = format!("record-{mdt}-{case}");
        match rig.dmz().get(&id) {
            Some(doc) => {
                let held = doc.body().get("marker").and_then(Value::as_i64);
                if held != Some(marker as i64) {
                    problems.push(format!(
                        "{id} holds marker {held:?}, last acknowledged {marker}"
                    ));
                }
                if *doc.labels() != LabelSet::singleton(mdt_label(&mdt)) {
                    problems.push(format!("{id} is labelled {}", doc.labels().to_wire()));
                }
            }
            None => problems.push(format!("{id} is missing from the DMZ replica")),
        }
    }

    let violations = rig.portal.deployment().engine_violations().len();
    if violations != 0 {
        problems.push(format!("engine recorded {violations} violations"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_read_from_the_first_cell() {
        let page = b"<table>\n<tr><th>Case</th></tr>\n<tr><td>17</td><td>x</td></tr>\n<tr><td>4</td><td>y</td></tr>\n</table>";
        assert_eq!(listed_cases(page), vec![17, 4]);
        assert!(listed_cases(b"<html></html>").is_empty());
    }
}
