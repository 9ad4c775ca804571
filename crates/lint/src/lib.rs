//! # diesel-lint — workspace invariant checker
//!
//! Enforces six repo-specific rules the compiler cannot see:
//!
//! * **R1 panic-freedom** — no `unwrap`/`expect`/panicking macros/slice
//!   indexing in the library code of the serving crates (`core`,
//!   `cache`, `meta`, `kv`, `net`, `store`, `chunk`). Poisoned locks are
//!   handled by `diesel_util::lock_or_recover`, so no lock-unwrap
//!   pattern needs to exist.
//! * **R2 determinism** — no `Instant::now`/`SystemTime::now`/
//!   `thread_rng`/`from_entropy` outside the clock module
//!   (`diesel_util::clock`).
//!   Bench, bin and test targets are exempt.
//! * **R3 lock discipline** — no blocking `.call(…)` RPC or simulated
//!   `sleep_ns(…)` in a scope holding a lock guard (scope-level
//!   approximation of the cache peer fan-out deadlock hazard).
//! * **R4 format hygiene** — the chunk on-disk constants (`CHUNK_MAGIC`,
//!   `FORMAT_VERSION`, `FIXED_HEADER_LEN`) are referenced only from
//!   `chunk::format`.
//! * **R5 lock order** — a nested `.lock()`/`.read()`/`.write()` under a
//!   live guard must follow the declared rank manifest
//!   (`rules::LOCK_RANKS`): strictly rank-upward, no unranked nesting.
//!   The static half of the deadlock-freedom invariant; the runtime half
//!   is `diesel_util::lockdep` (DESIGN.md §12).
//! * **R6 copy hygiene** — payload byte copies (`.to_vec()`,
//!   `.into_vec()`, `Vec::from`) outside `util::bytes` must sit beside a
//!   `record_copy(…)` ledger call, keeping the zero-copy read path
//!   (DESIGN.md §11) shrink-only.
//!
//! Findings can be suppressed in place with
//! `// diesel-lint: allow(R1) <reason>` (the reason is mandatory), or
//! carried in a baseline file so adoption is incremental; the baseline
//! may only ever shrink (`--baseline-check`).
//!
//! The issue sketched this on top of `syn`; the build is offline and
//! dependency-free, so the rules instead run over a comment- and
//! literal-scrubbed view of the source (see [`lex`]) — cruder than an
//! AST, but exact about line numbers and immune to tokens hiding in
//! strings.

pub mod baseline;
pub mod lex;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Panic-freedom in serving crates.
    R1,
    /// Determinism: no raw time/entropy reads.
    R2,
    /// Lock discipline: no blocking calls under a guard.
    R3,
    /// Format hygiene: on-disk constants stay in `chunk::format`.
    R4,
    /// Lock order: nested acquisition follows the rank manifest.
    R5,
    /// Copy hygiene: payload byte copies are ledgered.
    R6,
}

impl Rule {
    /// All rules, in order.
    pub const ALL: [Rule; 6] = [Rule::R1, Rule::R2, Rule::R3, Rule::R4, Rule::R5, Rule::R6];

    /// Short code, e.g. `"R1"`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
        }
    }

    /// Parse `"R1"`…`"R4"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            _ => None,
        }
    }
}

impl Rule {
    /// A paragraph of context for `--explain`: what the rule protects,
    /// why it exists, and how to satisfy it.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::R1 => {
                "R1 panic-freedom: serving-crate library code must not unwrap/expect/panic \
                 or slice-index. A panic under load poisons locks and takes the whole \
                 multi-tenant process down; return a typed error instead. Poisoned-lock \
                 recovery already exists (diesel_util::lock_or_recover), so no lock-unwrap \
                 pattern is ever needed."
            }
            Rule::R2 => {
                "R2 determinism: no Instant::now/SystemTime::now/thread_rng/from_entropy \
                 outside the clock module. All time flows through the injectable Clock and \
                 all randomness through seeded RNGs, so simulations and tests replay \
                 bit-identically."
            }
            Rule::R3 => {
                "R3 lock discipline: no blocking .call(…) RPC or simulated sleep_ns(…) \
                 while a lock guard is live in the scope. Blocking under a lock turns one \
                 slow peer into a wedged shard; drop or scope the guard first."
            }
            Rule::R4 => {
                "R4 format hygiene: the chunk on-disk constants (CHUNK_MAGIC, \
                 FORMAT_VERSION, FIXED_HEADER_LEN) are referenced only from chunk::format. \
                 Every other reader goes through the parsed header, so the format can \
                 evolve in one place."
            }
            Rule::R5 => {
                "R5 lock order: acquiring a second lock while holding one is allowed only \
                 when both receivers appear in the LOCK_RANKS manifest \
                 (crates/lint/src/rules.rs) and rank strictly increases inward. This is \
                 the static half of deadlock-freedom; the runtime half is the \
                 diesel_util::lockdep witness (DIESEL_LOCKDEP=off|warn|fail). To bless a \
                 new nesting, add both receivers to the manifest with ranks matching the \
                 global order — never invert an existing pair."
            }
            Rule::R6 => {
                "R6 copy hygiene: .to_vec()/.into_vec()/Vec::from on bytes outside \
                 util::bytes must sit within 3 lines of a record_copy(…) call, so every \
                 payload copy lands in the bytes.copied{site=…} ledger and the zero-copy \
                 read path stays shrink-only. Non-payload copies (paths, ids, test \
                 fixtures) are suppressed in place with a reason."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path (set by the scanner; rule passes leave it
    /// empty).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding with the path still unset.
    pub fn new(rule: Rule, line: usize, message: String) -> Self {
        Finding { rule, path: String::new(), line, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// How a file participates in each rule, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Targets {
    /// R1 applies (serving-crate library code).
    pub r1: bool,
    /// R2 applies (library code outside the clock modules).
    pub r2: bool,
    /// R3 applies (library code).
    pub r3: bool,
    /// R4 applies (everything except `chunk::format`).
    pub r4: bool,
    /// R5 applies (library code).
    pub r5: bool,
    /// R6 applies (serving-crate library code outside `util::bytes`).
    pub r6: bool,
}

/// Classify a workspace-relative path (`crates/net/src/rpc.rs`).
///
/// Test targets (`tests/`, `benches/`, `*_test.rs`), bin targets
/// (`src/bin/`, `main.rs`) and bench bins are exempt from R1–R3;
/// `#[cfg(test)]` regions inside library files are handled separately
/// during scanning.
pub fn classify(rel: &str) -> Targets {
    let rel = rel.replace('\\', "/");
    let test_target = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.ends_with("_test.rs");
    let bin_target = rel.contains("/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    let lib_code = !test_target && !bin_target;

    let r1_crate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .is_some_and(|c| rules::R1_CRATES.contains(&c));

    Targets {
        r1: lib_code && r1_crate,
        r2: lib_code && !rules::R2_EXEMPT.contains(&rel.as_str()),
        r3: lib_code,
        r4: rel != rules::R4_HOME && !test_target,
        r5: lib_code,
        r6: lib_code && r1_crate && rel != rules::R6_HOME,
    }
}

/// Lint one file's source. `rel` is the workspace-relative path used in
/// findings and for target classification.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let targets = classify(rel);
    let scrubbed = lex::scrub(src);
    let test_regions = lex::test_regions(&scrubbed.code);
    let in_test = |line: usize| test_regions.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    let mut raw = Vec::new();
    if targets.r1 {
        rules::r1_panic(&scrubbed.code, &mut raw);
    }
    if targets.r2 {
        rules::r2_determinism(&scrubbed.code, &mut raw);
    }
    if targets.r3 {
        rules::r3_lock_discipline(&scrubbed.code, &mut raw);
    }
    if targets.r4 {
        rules::r4_format_hygiene(&scrubbed.code, &mut raw);
    }
    if targets.r5 {
        rules::r5_lock_order(&scrubbed.code, &mut raw);
    }
    if targets.r6 {
        rules::r6_copy_hygiene(&scrubbed.code, &mut raw);
    }

    let mut out = Vec::new();
    for mut f in raw {
        // R4 applies to test code too (fixtures must not clone on-disk
        // constants); the panic/determinism/lock rules do not.
        if f.rule != Rule::R4 && in_test(f.line) {
            continue;
        }
        if let Some(sup) = scrubbed
            .suppressions
            .iter()
            .find(|s| s.rules.contains(&f.rule) && (s.line == f.line || s.line + 1 == f.line))
        {
            if sup.has_reason {
                continue;
            }
            f.message = format!(
                "suppression for {} is missing a reason (\"// diesel-lint: allow({}) <why>\")",
                f.rule, f.rule
            );
        }
        f.path = rel.to_owned();
        out.push(f);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Recursively collect the workspace `.rs` files to lint, relative to
/// `root`: `crates/*/…` plus the root package's `src/` and `tests/`.
/// Skips `target/`, the offline dependency stand-ins in `.devstubs/`,
/// and diesel-lint's own rule fixtures (which violate on purpose).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<PathBuf> = out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|p| {
            let s = p.to_string_lossy().replace('\\', "/");
            !s.starts_with(".devstubs/")
                && !s.contains("/target/")
                && !s.starts_with("crates/lint/tests/fixtures/")
                && !s.starts_with("crates/lint/tests/corpus/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == ".devstubs" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every workspace file under `root`; findings carry
/// root-relative paths.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for rel in workspace_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        out.extend(scan_source(&rel.to_string_lossy().replace('\\', "/"), &src));
    }
    Ok(out)
}

/// Render findings as a machine-readable JSON document.
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule,
            esc(&f.path),
            f.line,
            esc(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!("  ],\n  \"total\": {}\n}}\n", findings.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_serving_crate_lib() {
        let t = classify("crates/net/src/rpc.rs");
        assert!(t.r1 && t.r2 && t.r3 && t.r4);
    }

    #[test]
    fn classify_exemptions() {
        assert!(classify("crates/train/src/tensor.rs").r1, "train joined R1 in PR 7");
        assert!(!classify("crates/bench/src/report.rs").r1, "bench tooling may unwrap");
        assert!(!classify("crates/util/src/bytes.rs").r6, "Bytes owns its copies");
        assert!(classify("crates/util/src/sync.rs").r6);
        assert!(!classify("crates/util/src/clock.rs").r2, "clock module reads real time");
        assert!(classify("crates/net/src/clock.rs").r2, "only the one clock module is exempt");
        let t = classify("crates/net/tests/integration.rs");
        assert!(!t.r1 && !t.r2 && !t.r3);
        let t = classify("crates/core/src/bin/dlcmd.rs");
        assert!(!t.r1 && !t.r2, "bin targets may unwrap and read time");
        assert!(!classify("crates/chunk/src/format.rs").r4, "format.rs owns the constants");
        assert!(classify("crates/chunk/src/reader.rs").r4);
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_r1() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { None::<u8>.unwrap(); }\n}\n";
        let found = scan_source("crates/kv/src/lib.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f() { x.unwrap(); // diesel-lint: allow(R1) documented invariant\n}\n";
        assert!(scan_source("crates/kv/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let src = "fn f() {\n  // diesel-lint: allow(R1)\n  x.unwrap();\n}\n";
        let found = scan_source("crates/kv/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("missing a reason"), "{}", found[0].message);
    }

    #[test]
    fn json_escapes() {
        let f = vec![Finding {
            rule: Rule::R1,
            path: "a\"b.rs".into(),
            line: 3,
            message: "x\ny".into(),
        }];
        let j = to_json(&f);
        assert!(j.contains("a\\\"b.rs") && j.contains("x\\ny") && j.contains("\"total\": 1"));
    }
}
