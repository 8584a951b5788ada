//! Privilege-separation auditor runner:
//! `cargo run -p erebor-analyze --bin privilege`.
//!
//! Scans the workspace source from the manifest root (or a path given as
//! the first argument), checks every privileged-symbol reference against
//! the declared privilege manifest (DESIGN.md §13), prints each finding,
//! emits the machine-readable report on the `EREBOR_JSON:` marker line,
//! and exits non-zero when any rule fired **or any waiver comment exists
//! in the tree** — the CI baseline is zero findings, zero waivers. Pass
//! `--honor-waivers` for exploratory local runs only.

use erebor_analyze::privilege::{self, WaiverPolicy};
use std::path::PathBuf;

fn main() {
    let mut policy = WaiverPolicy::Refuse;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--honor-waivers" {
            policy = WaiverPolicy::Honor;
        } else {
            root = Some(PathBuf::from(arg));
        }
    }
    let root = root.unwrap_or_else(|| {
        // The bin runs from anywhere inside the workspace; the crate
        // manifest dir is crates/analyze, two levels below the root.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map_or(manifest.clone(), PathBuf::from)
    });
    let report = privilege::scan_workspace(&root, policy);
    for f in &report.findings {
        println!("privilege: {f}");
    }
    println!("EREBOR_JSON:{}", report.json());
    let waivers_block = policy == WaiverPolicy::Refuse && report.waivers_seen > 0;
    if !report.findings.is_empty() || waivers_block {
        std::process::exit(1);
    }
}
