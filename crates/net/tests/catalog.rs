//! README's catalog is the code's: one row for every metric family the `/metrics`
//! page can carry ([`Metrics::CATALOG`]) and every event kind ([`EventKind::ALL`]),
//! with its type, and no other row.

use dssp_core::events::EventKind;
use dssp_net::metrics::Metrics;
use std::collections::BTreeSet;

const README: &str = include_str!("../../../README.md");

/// The header row that opens README's catalog table.
const HEADER: &str = "| name | type | labels or payload | meaning |\n";

#[test]
fn readme_catalog_matches_the_code_both_ways() {
    let (_, table) = README
        .split_once(HEADER)
        .expect("README has the catalog table");
    let documented: BTreeSet<(&str, &str)> = table
        .lines()
        .skip(1) // the |---| separator
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            let name = cells.next().unwrap_or_default().trim_matches('`');
            (name, cells.next().unwrap_or_default())
        })
        .collect();
    let code: BTreeSet<(&str, &str)> = Metrics::CATALOG
        .iter()
        .map(|&(name, kind, _)| (name, kind))
        .chain(EventKind::ALL.iter().map(|kind| (kind.as_str(), "event")))
        .collect();
    let undocumented: Vec<_> = code.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&code).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "README's catalog lacks {undocumented:?} and lists {unknown:?}, which the code has not"
    );
}
