//! # mdmp-analyze — workspace invariant linter
//!
//! A static-analysis pass over `crates/*/src` (plus `vendor/interleave`
//! for R3) that enforces the invariants the paper's bit-identity claims
//! rest on (DESIGN.md §11, §16). Seven rules:
//!
//! | id | rule | protects |
//! |----|------|----------|
//! | R1 | precision hygiene: no raw `.sqrt()`/`.powi()`/`as f32`/`as f64` in `crates/core/src/kernels/*` outside the blessed `dist_value`/`dist_value_lanes`/`gemm_accumulate` call sites | every rounding decision happens in one audited expression |
//! | R2 | determinism: no `HashMap`/`HashSet` in merge/profile/serialization paths | iteration order never reaches results |
//! | R3 | atomic-ordering audit: every `Ordering::Relaxed` carries a `// relaxed-ok:` justification | each relaxed access is argued not to order data |
//! | R4 | panic hygiene: no `unwrap()`/`expect()`/`panic!` in service request-path modules | a bad request cannot take the worker down |
//! | R5 | float-compare: no `==`/`!=` on float operands outside `crates/precision` | bit-equality goes through the pinned helpers |
//! | R6 | lock-order: no two locks acquired in opposite orders on any two interprocedural paths | no schedule can deadlock two threads meeting in the middle |
//! | R7 | lock-across-blocking: no lock held across socket I/O, `join`, channel `recv`, sleep, or a `Condvar` wait on a different lock | a slow peer or lost wakeup cannot stall every thread needing the lock |
//!
//! R1–R5 are line-level token rules. R6/R7 are a two-phase
//! interprocedural analysis: [`facts`] extracts per-function events
//! (acquisitions with canonical lock identities, waits, blocking calls,
//! intra-crate callees, each with the held-lock set), [`callgraph`]
//! propagates summaries over the approximate call graph to a fixpoint,
//! and [`lockorder`] reports inversions and hold-across-blocking with
//! full `file:line` acquisition chains in [`Violation::path`].
//!
//! Escapes: an annotation comment on the same or previous line
//! (`precision-ok:`, `order-ok:`, `relaxed-ok:`, `panic-ok:`,
//! `float-eq-ok:`, `lock-order-ok:`, `lock-hold-ok:`) or a `[[allow]]`
//! entry in `analyze/baseline.toml`. `#[cfg(test)]` modules are exempt
//! from every rule.
//!
//! The scanner masks string literals and comments before matching, tracks
//! nested block comments and raw strings, and records the enclosing
//! function per line so R1 can bless the audited distance expressions.
//! All output (diagnostics, JSON, SARIF) is sorted, so the tool itself is
//! deterministic. Hardcoded scope lists (request-path modules, kernel
//! dir, blessed kernel fns, lock table files) are checked against the
//! tree on every run and rot is reported as a warning (an error under
//! `--deny-warnings`).

mod callgraph;
mod facts;
mod lockorder;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A lint rule's static description.
pub struct RuleInfo {
    /// Stable identifier (`R1`..`R5`).
    pub id: &'static str,
    /// Short human name.
    pub name: &'static str,
    /// The annotation marker that waives a finding in place.
    pub annotation: &'static str,
}

/// The rule table, in report order.
pub const RULES: [RuleInfo; 7] = [
    RuleInfo {
        id: "R1",
        name: "precision-hygiene",
        annotation: "precision-ok:",
    },
    RuleInfo {
        id: "R2",
        name: "iteration-determinism",
        annotation: "order-ok:",
    },
    RuleInfo {
        id: "R3",
        name: "relaxed-ordering-audit",
        annotation: "relaxed-ok:",
    },
    RuleInfo {
        id: "R4",
        name: "panic-hygiene",
        annotation: "panic-ok:",
    },
    RuleInfo {
        id: "R5",
        name: "float-compare",
        annotation: "float-eq-ok:",
    },
    RuleInfo {
        id: "R6",
        name: "lock-order-inversion",
        annotation: "lock-order-ok:",
    },
    RuleInfo {
        id: "R7",
        name: "lock-across-blocking",
        annotation: "lock-hold-ok:",
    },
];

/// Functions in `crates/core/src/kernels/` allowed to perform raw float
/// arithmetic: the audited distance expression, its lane form, and the
/// simulated-MMA accumulation choke point of the tensor-core GEMM path
/// (all narrowing there is delegated to `mdmp_gpu_sim::mma_dot`).
const BLESSED_KERNEL_FNS: [&str; 3] = ["dist_value", "dist_value_lanes", "gemm_accumulate"];

/// Service and cluster modules on the request path (R4 scope): code a
/// remote client's request flows through must return typed errors, never
/// panic.
const REQUEST_PATH_MODULES: [&str; 9] = [
    "crates/service/src/scheduler.rs",
    "crates/service/src/server.rs",
    "crates/service/src/session.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/wire.rs",
    "crates/core/src/streaming.rs",
    "crates/cluster/src/coordinator.rs",
    "crates/cluster/src/client.rs",
    "crates/cluster/src/lease.rs",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`R1`..`R7`).
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// For R6/R7: the acquisition chain (`file:line: what` per hop)
    /// leading to the finding. Empty for the line-level rules.
    pub path: Vec<String>,
}

/// One `[[allow]]` entry from the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id the entry waives.
    pub rule: String,
    /// Repo-relative file the entry applies to.
    pub file: String,
    /// Substring of the offending line (stable under line drift).
    pub contains: String,
    /// Why the finding is benign.
    pub reason: String,
}

/// Parsed baseline: a list of allow entries.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parse the TOML subset used by `analyze/baseline.toml`:
    /// `[[allow]]` tables with `rule`/`file`/`contains`/`reason` string
    /// keys, `#` comments, blank lines. Anything else is an error.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = Vec::new();
        let mut current: Option<BTreeMap<String, String>> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(map) = current.take() {
                    entries.push(Self::finish_entry(map, lineno)?);
                }
                current = Some(BTreeMap::new());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "baseline line {lineno}: expected `key = \"value\"`"
                ));
            };
            let key = key.trim();
            let value = value.trim();
            if !value.starts_with('"') || !value.ends_with('"') || value.len() < 2 {
                return Err(format!(
                    "baseline line {lineno}: value for `{key}` must be a double-quoted string"
                ));
            }
            let unquoted = value[1..value.len() - 1]
                .replace("\\\"", "\"")
                .replace("\\\\", "\\");
            let Some(map) = current.as_mut() else {
                return Err(format!(
                    "baseline line {lineno}: `{key}` outside an [[allow]] table"
                ));
            };
            if map.insert(key.to_string(), unquoted).is_some() {
                return Err(format!("baseline line {lineno}: duplicate key `{key}`"));
            }
        }
        if let Some(map) = current.take() {
            entries.push(Self::finish_entry(map, text.lines().count())?);
        }
        Ok(Baseline { entries })
    }

    fn finish_entry(
        mut map: BTreeMap<String, String>,
        lineno: usize,
    ) -> Result<BaselineEntry, String> {
        let mut take = |key: &str| {
            map.remove(key)
                .ok_or_else(|| format!("baseline entry ending at line {lineno}: missing `{key}`"))
        };
        let entry = BaselineEntry {
            rule: take("rule")?,
            file: take("file")?,
            contains: take("contains")?,
            reason: take("reason")?,
        };
        if let Some(extra) = map.keys().next() {
            return Err(format!(
                "baseline entry ending at line {lineno}: unknown key `{extra}`"
            ));
        }
        if entry.reason.trim().is_empty() {
            return Err(format!(
                "baseline entry ending at line {lineno}: `reason` must not be empty"
            ));
        }
        Ok(entry)
    }
}

/// Result of a full analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Findings not waived by an annotation or the baseline, sorted.
    pub violations: Vec<Violation>,
    /// Baseline entries that matched nothing (stale).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Scope-rot warnings: hardcoded scope paths that no longer exist on
    /// disk. Fatal under `--deny-warnings`.
    pub warnings: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Per-line scan product.
pub(crate) struct LineInfo {
    raw: String,
    masked: String,
    in_test: bool,
    func: Option<String>,
}

/// Mask string/char literals and comments with spaces, preserving line
/// structure and column positions, so rules match code tokens only.
pub(crate) fn mask_source(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(usize),
        Str,
        RawStr(usize),
    }
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                    i += 1;
                }
                'r' | 'b' => {
                    // Possible raw-string start: r", r#", br", b".
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || (c == 'b' && bytes.get(i + 1) == Some(&'r')))
                        && bytes.get(j) == Some(&'"');
                    let is_byte_str = c == 'b' && hashes == 0 && bytes.get(i + 1) == Some(&'"');
                    if is_raw {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else if is_byte_str {
                        out.push_str("  ");
                        st = St::Str;
                        i += 2;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: 'x' or '\n' is a literal;
                    // 'a followed by non-quote is a lifetime.
                    if next == Some('\\') {
                        // Escape: mask until the closing quote.
                        out.push(' ');
                        i += 1;
                        while i < bytes.len() {
                            let e = bytes[i];
                            out.push(if e == '\n' { '\n' } else { ' ' });
                            i += 1;
                            if e == '\'' {
                                break;
                            }
                        }
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        out.push_str("   ");
                        i += 3;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else {
                    if c == '"' {
                        st = St::Code;
                    }
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && bytes[i + 1..].iter().take(hashes).all(|&h| h == '#') && {
                    bytes.get(i + 1 + hashes).is_some() || i + 1 + hashes == bytes.len()
                } {
                    // Close only when exactly `hashes` hashes follow.
                    let closing = bytes[i + 1..].iter().take_while(|&&h| h == '#').count();
                    if closing >= hashes {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        st = St::Code;
                        i += 1 + hashes;
                        continue;
                    }
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Tokenize a masked line into identifier-ish tokens.
fn tokens(line: &str) -> Vec<&str> {
    line.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|t| !t.is_empty())
        .collect()
}

/// Build per-line info: masked text, `#[cfg(test)]` membership, and the
/// enclosing function name (tracked by brace depth on masked lines).
pub(crate) fn scan_lines(text: &str) -> Vec<LineInfo> {
    let masked = mask_source(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let mut out = Vec::with_capacity(raw_lines.len());

    let mut depth: i64 = 0;
    let mut pending_test = false;
    let mut test_depth: Option<i64> = None;
    let mut pending_fn: Option<String> = None;
    // Paren/bracket depth inside a pending signature, so `;` in `[T; N]`
    // or default args is not mistaken for a bodyless trait method.
    let mut sig_nest: i64 = 0;
    let mut fn_stack: Vec<(i64, String)> = Vec::new();

    for (idx, raw) in raw_lines.iter().enumerate() {
        let m = masked_lines.get(idx).copied().unwrap_or("");
        let mut in_test = test_depth.is_some() || pending_test;

        let toks = tokens(m);
        if let Some(pos) = toks.iter().position(|&t| t == "fn") {
            if let Some(name) = toks.get(pos + 1) {
                pending_fn = Some((*name).to_string());
                sig_nest = 0;
            }
        }
        if m.contains("#[cfg(test)]") {
            pending_test = true;
            in_test = true;
        }

        for c in m.chars() {
            match c {
                '{' => {
                    if pending_test && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending_test = false;
                        in_test = true;
                    }
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((depth, name));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_depth.is_some_and(|td| depth <= td) {
                        test_depth = None;
                    }
                    while fn_stack.last().is_some_and(|(d, _)| depth <= *d) {
                        fn_stack.pop();
                    }
                }
                '(' | '[' if pending_fn.is_some() => sig_nest += 1,
                ')' | ']' if pending_fn.is_some() => sig_nest -= 1,
                ';' if sig_nest == 0 => {
                    // `fn name(...);` in a trait: no body to enter.
                    pending_fn = None;
                }
                _ => {}
            }
        }

        out.push(LineInfo {
            raw: (*raw).to_string(),
            masked: m.to_string(),
            in_test,
            func: fn_stack.last().map(|(_, n)| n.clone()),
        });
    }
    out
}

/// Is the finding waived by an annotation on this line or in the
/// contiguous comment block directly above it?
pub(crate) fn annotated(lines: &[LineInfo], idx: usize, marker: &str) -> bool {
    if lines[idx].raw.contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let prev = lines[i].raw.trim_start();
        if !prev.starts_with("//") {
            return false;
        }
        if prev.contains(marker) {
            return true;
        }
    }
    false
}

/// Extract the operand text immediately left/right of position `pos..pos+2`
/// (an `==`/`!=` operator) in a masked line.
fn operands(line: &str, pos: usize) -> (String, String) {
    let chars: Vec<char> = line.chars().collect();
    let is_operand = |c: char| {
        c.is_alphanumeric()
            || matches!(c, '_' | '.' | ':' | '(' | ')' | '[' | ']' | '-' | '*' | '&')
    };
    let mut l = pos;
    while l > 0 && chars[l - 1] == ' ' {
        l -= 1;
    }
    let left_end = l;
    while l > 0 && is_operand(chars[l - 1]) {
        l -= 1;
    }
    let left: String = chars[l..left_end].iter().collect();
    let mut r = pos + 2;
    while r < chars.len() && chars[r] == ' ' {
        r += 1;
    }
    let right_start = r;
    while r < chars.len() && is_operand(chars[r]) {
        r += 1;
    }
    let right: String = chars[right_start..r].iter().collect();
    (left, right)
}

/// Does an operand expression look like a float?
fn float_ish(op: &str) -> bool {
    // An operand funneled through `to_bits()` is the integer comparison
    // this rule recommends, whatever float names appear earlier in the
    // call chain (`Half::from_f64(v).to_f64().to_bits()`).
    if op.trim_end().ends_with(".to_bits()") {
        return false;
    }
    if op.contains("f32") || op.contains("f64") {
        return true;
    }
    if op.contains("NAN") || op.contains("INFINITY") || op.contains("EPSILON") {
        return true;
    }
    if op.contains(".fract(") || op.contains(".sqrt(") {
        return true;
    }
    // Float literal: a digit, a dot, then a digit (1.0, 0.25, 3.0e-2).
    let chars: Vec<char> = op.chars().collect();
    chars
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == '.' && (w[2].is_ascii_digit() || w[2] == 'e'))
        || {
            // Trailing `1.` form.
            chars.len() >= 2
                && chars[chars.len() - 1] == '.'
                && chars[chars.len() - 2].is_ascii_digit()
        }
}

/// Run the line-level rules (R1–R5) over one file. Vendored sources
/// (`vendor/interleave`) are in scope for R3 only: the model checker's
/// own atomics must be audited, but its internal style is its own.
fn check_file(rel: &str, text: &str, out: &mut Vec<Violation>) {
    let lines = scan_lines(text);
    let vendored = rel.starts_with("vendor/");
    let in_kernels = !vendored && rel.starts_with("crates/core/src/kernels/");
    let r2_scope = !vendored
        && (rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/service/src/")
            || rel.starts_with("crates/cluster/src/")
            || rel.starts_with("crates/cli/src/"));
    let r4_scope = !vendored && REQUEST_PATH_MODULES.contains(&rel);
    let r5_scope = !vendored && !rel.starts_with("crates/precision/");

    for (idx, li) in lines.iter().enumerate() {
        if li.in_test {
            continue;
        }
        let line_no = idx + 1;
        let m = &li.masked;
        let push = |out: &mut Vec<Violation>, rule: &'static str, message: String| {
            out.push(Violation {
                file: rel.to_string(),
                line: line_no,
                rule,
                message,
                snippet: li.raw.trim().to_string(),
                path: Vec::new(),
            });
        };

        // R1: precision hygiene inside kernels.
        if in_kernels && !annotated(&lines, idx, "precision-ok:") {
            let blessed = li
                .func
                .as_deref()
                .is_some_and(|f| BLESSED_KERNEL_FNS.contains(&f));
            if !blessed {
                for tok in [".sqrt(", ".powi(", "as f32", "as f64"] {
                    if m.contains(tok) {
                        push(
                            out,
                            "R1",
                            format!(
                                "raw float operation `{}` in kernel code outside the blessed \
                                 dist_value/dist_value_lanes call sites",
                                tok.trim()
                            ),
                        );
                    }
                }
            }
        }

        // R2: HashMap/HashSet in determinism-sensitive crates.
        if r2_scope && !annotated(&lines, idx, "order-ok:") {
            for tok in ["HashMap", "HashSet"] {
                if tokens(m).contains(&tok) {
                    push(
                        out,
                        "R2",
                        format!(
                            "`{tok}` in a merge/profile/serialization path: iteration order is \
                             nondeterministic; use BTreeMap/BTreeSet/Vec"
                        ),
                    );
                }
            }
        }

        // R3: Relaxed atomics need a written justification.
        if m.contains("Ordering::Relaxed") && !annotated(&lines, idx, "relaxed-ok:") {
            push(
                out,
                "R3",
                "`Ordering::Relaxed` without a `// relaxed-ok:` justification".to_string(),
            );
        }

        // R4: request-path panic hygiene.
        if r4_scope && !annotated(&lines, idx, "panic-ok:") {
            for tok in [".unwrap()", ".expect(", "panic!(", "unreachable!("] {
                if m.contains(tok) {
                    push(
                        out,
                        "R4",
                        format!(
                            "`{}` on a service request path; return a typed error instead",
                            tok.trim_end_matches('(')
                        ),
                    );
                }
            }
        }

        // R5: float equality outside the precision crate.
        if r5_scope && !annotated(&lines, idx, "float-eq-ok:") {
            let bytes: Vec<char> = m.chars().collect();
            for pos in 0..bytes.len().saturating_sub(1) {
                let two: String = bytes[pos..pos + 2].iter().collect();
                if two != "==" && two != "!=" {
                    continue;
                }
                // Skip the middle of `===`-like runs and `<=`/`>=`/`=>`.
                if pos > 0 && matches!(bytes[pos - 1], '=' | '<' | '>' | '!') {
                    continue;
                }
                if bytes.get(pos + 2) == Some(&'=') {
                    continue;
                }
                let (left, right) = operands(m, pos);
                if float_ish(&left) || float_ish(&right) {
                    push(
                        out,
                        "R5",
                        format!(
                            "float equality `{left} {two} {right}`; use the precision crate's \
                             bit-equality helpers or compare to_bits()"
                        ),
                    );
                    break; // one R5 finding per line is enough
                }
            }
        }
    }
}

/// Walk `root/crates/*/src` — plus `root/vendor/interleave/src` when
/// present (R3 scope) — collecting `.rs` files, sorted by relative path
/// for deterministic output.
fn collect_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, root, &mut out)?;
        }
    }
    let vendored = root.join("vendor/interleave/src");
    if vendored.is_dir() {
        walk(&vendored, root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Analyze the tree at `root` against `baseline`: the line-level rules
/// R1–R5 per file, then the two-phase interprocedural R6/R7 pass over
/// the `crates/*/src` facts.
pub fn analyze(root: &Path, baseline: &Baseline) -> Result<Analysis, String> {
    let sources = collect_sources(root)?;
    let mut violations = Vec::new();
    let mut file_facts = Vec::new();
    let mut raw_lines: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut kernel_fns_seen: Vec<&'static str> = Vec::new();
    for (rel, path) in &sources {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        check_file(rel, &text, &mut violations);
        if rel.starts_with("crates/core/src/kernels/") {
            for f in BLESSED_KERNEL_FNS {
                if text.contains(&format!("fn {f}")) && !kernel_fns_seen.contains(&f) {
                    kernel_fns_seen.push(f);
                }
            }
        }
        // R6/R7 facts come from the workspace crates only; the vendored
        // model checker's own locking is out of scope by design.
        if rel.starts_with("crates/") {
            file_facts.push(facts::extract(rel, &text));
            raw_lines.insert(rel.clone(), text.lines().map(str::to_string).collect());
        }
    }
    let program = callgraph::build(&file_facts);
    violations.extend(lockorder::check(&program, &file_facts, &raw_lines));

    let scanned_kernels = sources
        .iter()
        .any(|(rel, _)| rel.starts_with("crates/core/src/kernels/"));
    let warnings = scope_warnings(root, scanned_kernels, &kernel_fns_seen);

    let mut used = vec![false; baseline.entries.len()];
    violations.retain(|v| {
        for (i, e) in baseline.entries.iter().enumerate() {
            if e.rule == v.rule && e.file == v.file && v.snippet.contains(&e.contains) {
                used[i] = true;
                return false;
            }
        }
        true
    });
    let stale_baseline = baseline
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();

    violations.sort();
    Ok(Analysis {
        violations,
        stale_baseline,
        warnings,
        files_scanned: sources.len(),
    })
}

/// Stale-scope detection: every hardcoded scope path must still exist on
/// disk, so the lists cannot rot silently when files are renamed. Each
/// check is gated on its crate's `src` dir existing, so fixture trees
/// (which contain only the crates under test) stay warning-free.
fn scope_warnings(
    root: &Path,
    scanned_kernels: bool,
    kernel_fns_seen: &[&'static str],
) -> Vec<String> {
    let mut warnings = Vec::new();
    let crate_src_of = |rel: &str| -> Option<PathBuf> {
        let mut parts = rel.split('/');
        let (a, b) = (parts.next()?, parts.next()?);
        Some(root.join(a).join(b).join("src"))
    };
    let mut stale_file = |list_name: &str, rel: &str| {
        let Some(src) = crate_src_of(rel) else { return };
        if src.is_dir() && !root.join(rel).is_file() {
            warnings.push(format!(
                "stale scope path: {list_name} lists `{rel}` but it no longer exists on disk \
                 (renamed? update the list)"
            ));
        }
    };
    for rel in REQUEST_PATH_MODULES {
        stale_file("REQUEST_PATH_MODULES (R4)", rel);
    }
    for rel in facts::BLOCKING_IO_FILES {
        stale_file("BLOCKING_IO_FILES (R7)", rel);
    }
    let mut lock_files: Vec<&str> = facts::LOCK_TABLE.iter().map(|(f, _, _)| *f).collect();
    lock_files.sort_unstable();
    lock_files.dedup();
    for rel in lock_files {
        stale_file("LOCK_TABLE (R6/R7)", rel);
    }
    if root.join("crates/core/src").is_dir() && !root.join("crates/core/src/kernels").is_dir() {
        warnings.push(
            "stale scope path: R1 scopes `crates/core/src/kernels/` but the directory no longer \
             exists on disk"
                .to_string(),
        );
    }
    if scanned_kernels {
        for f in BLESSED_KERNEL_FNS {
            if !kernel_fns_seen.contains(&f) {
                warnings.push(format!(
                    "stale scope entry: BLESSED_KERNEL_FNS (R1) blesses `{f}` but no kernel file \
                     defines it (renamed? update the list)"
                ));
            }
        }
    }
    warnings
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the analysis as a JSON document (hand-rolled; the workspace
/// deliberately has no serde).
pub fn to_json(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"files_scanned\": ");
    let _ = write!(s, "{}", a.files_scanned);
    s.push_str(",\n  \"violations\": [");
    for (i, v) in a.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"snippet\": \"{}\", \"path\": [",
            v.rule,
            json_escape(&v.file),
            v.line,
            json_escape(&v.message),
            json_escape(&v.snippet)
        );
        for (j, hop) in v.path.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", json_escape(hop));
        }
        s.push_str("]}");
    }
    if !a.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"stale_baseline\": [");
    for (i, e) in a.stale_baseline.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"contains\": \"{}\"}}",
            json_escape(&e.rule),
            json_escape(&e.file),
            json_escape(&e.contains)
        );
    }
    if !a.stale_baseline.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"warnings\": [");
    for (i, w) in a.warnings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    \"{}\"", json_escape(w));
    }
    if !a.warnings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Render the analysis as a SARIF 2.1.0 document so CI can surface
/// findings as code-scanning annotations. Same hand-rolled approach as
/// [`to_json`].
pub fn to_sarif(a: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [{\n");
    s.push_str("    \"tool\": {\"driver\": {\"name\": \"mdmp-analyze\", \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\n      {{\"id\": \"{}\", \"name\": \"{}\"}}",
            r.id, r.name
        );
    }
    s.push_str("\n    ]}},\n    \"results\": [");
    for (i, v) in a.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut text = v.message.clone();
        for hop in &v.path {
            text.push('\n');
            text.push_str(hop);
        }
        let _ = write!(
            s,
            "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            v.rule,
            json_escape(&text),
            json_escape(&v.file),
            v.line.max(1)
        );
    }
    if !a.violations.is_empty() {
        s.push_str("\n    ");
    }
    s.push_str("]\n  }]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_file(rel, src, &mut out);
        out
    }

    #[test]
    fn masking_hides_strings_and_comments() {
        let masked = mask_source("let x = \"HashMap\"; // HashMap\n/* HashMap */ let y = 1;\n");
        assert!(!masked.contains("HashMap"));
        assert!(masked.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        let masked = mask_source("let s = r#\"Ordering::Relaxed\"#; let c = '\"'; let l: &'a u8;");
        assert!(!masked.contains("Relaxed"));
        assert!(masked.contains("let l: &"));
    }

    #[test]
    fn r1_fires_outside_blessed_fn_only() {
        let src = "pub fn dist_value(x: f64) -> f64 {\n    x.sqrt()\n}\npub fn other(x: f64) -> f64 {\n    x.sqrt()\n}\n";
        let v = run("crates/core/src/kernels/dist.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R1");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn r2_ignores_test_modules_and_annotations() {
        let src = "use std::collections::HashMap; // order-ok: keyed access only\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let v = run("crates/service/src/cache.rs", src);
        assert!(v.iter().all(|v| v.rule != "R2"), "{v:?}");
    }

    #[test]
    fn r3_requires_justification() {
        let src = "a.load(Ordering::Relaxed);\n// relaxed-ok: monotonic counter\nb.load(Ordering::Relaxed);\n";
        let v = run("crates/core/src/driver.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn r4_scope_is_request_path_modules_only() {
        let src = "let g = m.lock().unwrap();\n";
        assert_eq!(run("crates/service/src/scheduler.rs", src).len(), 1);
        assert_eq!(run("crates/core/src/streaming.rs", src).len(), 1);
        assert_eq!(run("crates/service/src/metrics.rs", src).len(), 0);
    }

    #[test]
    fn r5_catches_float_eq_and_skips_ints() {
        let v = run(
            "crates/data/src/stats.rs",
            "if sd == 0.0 { }\nif n == 0 { }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R5");
        let v = run(
            "crates/core/src/tile_exec.rs",
            "let unset = p == f64::INFINITY && i == -1;\n",
        );
        assert_eq!(v.len(), 1);
        assert!(run("crates/precision/src/flex.rs", "a.0 == b.0;\n").is_empty());
    }

    /// The `to_bits()` idiom R5's own message recommends must not trip
    /// the rule, even when the call chain names a float conversion.
    #[test]
    fn r5_accepts_to_bits_comparisons() {
        let src = "if Half::from_f64(v).to_f64().to_bits() != bits { }\n\
                   if ((v as f32) as f64).to_bits() != v.to_bits() { }\n";
        assert!(run("crates/service/src/codec.rs", src).is_empty());
    }

    #[test]
    fn baseline_round_trip_and_stale_detection() {
        let b = Baseline::parse(
            "# comment\n[[allow]]\nrule = \"R5\"\nfile = \"crates/x/src/lib.rs\"\ncontains = \"q == 0.0\"\nreason = \"exact sentinel\"\n",
        )
        .unwrap();
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].rule, "R5");
        assert!(Baseline::parse("[[allow]]\nrule = \"R5\"\n").is_err());
        assert!(Baseline::parse("rule = \"R5\"\n").is_err());
    }

    #[test]
    fn json_output_is_valid_enough() {
        let a = Analysis {
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "R2",
                message: "msg \"quoted\"".into(),
                snippet: "let m: HashMap<u8, u8>;".into(),
                path: vec!["crates/x/src/lib.rs:3: acquires `x`".into()],
            }],
            stale_baseline: vec![],
            warnings: vec!["stale scope path: example".into()],
            files_scanned: 1,
        };
        let j = to_json(&a);
        assert!(j.contains("\"rule\": \"R2\""));
        assert!(j.contains("msg \\\"quoted\\\""));
        assert!(j.contains("\"path\": [\"crates/x/src/lib.rs:3: acquires `x`\"]"));
        assert!(j.contains("\"warnings\": [\n    \"stale scope path: example\"\n  ]"));
    }

    #[test]
    fn sarif_output_has_tool_rules_and_results() {
        let a = Analysis {
            violations: vec![Violation {
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                rule: "R6",
                message: "lock-order inversion".into(),
                snippet: "sync::lock(&s.b)".into(),
                path: vec!["crates/x/src/lib.rs:7: acquires `b`".into()],
            }],
            stale_baseline: vec![],
            warnings: vec![],
            files_scanned: 1,
        };
        let s = to_sarif(&a);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"mdmp-analyze\""));
        assert!(s.contains("\"id\": \"R6\", \"name\": \"lock-order-inversion\""));
        assert!(s.contains("\"ruleId\": \"R6\""));
        assert!(s.contains("\"startLine\": 7"));
        assert!(s.contains("acquires `b`"));
    }
}
