//! Structured auditor output: findings and the audit report.

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal: the two
/// structural characters plus control bytes. Shared by every structured
/// finding type — file paths and source excerpts flow through here, so a
/// path or line containing `"` or `\` cannot emit malformed JSON.
pub fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One violated security claim, located as precisely as the walk allows
/// (offending root, VA, PTE path, register, or ledger entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable check name (`wx-exclusive`, `pkey-tagging`, …). Tests and
    /// the chaos harness key off this.
    pub check: &'static str,
    /// The paper claim the check encodes (`C1`–`C8`, DESIGN.md §9).
    pub claim: &'static str,
    /// Human-readable offending state, including the GPA/PTE path for
    /// mapping checks.
    pub detail: String,
}

impl Finding {
    /// Construct a finding.
    #[must_use]
    pub fn new(check: &'static str, claim: &'static str, detail: String) -> Finding {
        Finding {
            check,
            claim,
            detail,
        }
    }

    /// Deterministic JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!("{{\"check\":\"{}\",\"claim\":\"{}\",\"detail\":\"", self.check, self.claim);
        escape_json(&self.detail, &mut s);
        s.push_str("\"}");
        s
    }
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}/{}] {}", self.claim, self.check, self.detail)
    }
}

/// The auditor's result: every finding plus the work the walk performed,
/// in simulated operations. The work counters are the budget the bench
/// guard asserts on — the audit must stay cheap enough to run after every
/// chaos case.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Violations found (empty for a clean snapshot).
    pub findings: Vec<Finding>,
    /// Distinct page-table roots walked.
    pub roots_walked: u64,
    /// Present leaf mappings visited across every root.
    pub leaf_mappings: u64,
    /// Raw PTE loads issued by the walks (the dominant cost).
    pub pte_reads: u64,
    /// Live TLB entries cross-checked against the tables.
    pub tlb_entries: u64,
    /// IDT vectors resolved and checked.
    pub idt_entries: u64,
}

impl AuditReport {
    /// Whether the snapshot satisfied every claim.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one named check.
    #[must_use]
    pub fn by_check(&self, check: &str) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.check == check).collect()
    }

    /// Total simulated operations charged to the audit (the bench-guard
    /// budget metric).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.pte_reads
            .saturating_add(self.tlb_entries)
            .saturating_add(self.idt_entries)
    }

    /// Deterministic JSON document.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&f.json());
        }
        let _ = write!(
            s,
            "],\"roots_walked\":{},\"leaf_mappings\":{},\"pte_reads\":{},\
             \"tlb_entries\":{},\"idt_entries\":{},\"work\":{}}}",
            self.roots_walked,
            self.leaf_mappings,
            self.pte_reads,
            self.tlb_entries,
            self.idt_entries,
            self.work()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_json_escapes_structural_characters() {
        let f = Finding::new("wx-exclusive", "C1", "va \"0x1\" \\ path".to_owned());
        let j = f.json();
        assert!(j.contains("\\\"0x1\\\""));
        assert!(j.contains("\\\\ path"));
    }

    #[test]
    fn report_json_is_stable_and_work_sums() {
        let mut r = AuditReport::default();
        r.pte_reads = 10;
        r.tlb_entries = 3;
        r.idt_entries = 2;
        assert_eq!(r.work(), 15);
        assert!(r.is_clean());
        assert_eq!(r.json(), r.clone().json());
        assert!(r.json().contains("\"work\":15"));
    }
}
