//! Source-level lint pass enforcing the repo's concurrency and
//! determinism invariants.
//!
//! Eight rules, run over every workspace `.rs` file (see DESIGN.md
//! §"Static analysis & invariants" for the rationale):
//!
//! 1. **no-unsafe / simd-discipline** — the tree is `unsafe`-free and
//!    must stay that way (also enforced at compile time via
//!    `unsafe_code = "forbid"`; this pass catches it before a compile
//!    and inside cfg'd-out code). The one sanctioned exception is the
//!    explicit-SIMD microkernel module: files listed in
//!    `crates/xtask/simd-allow.txt` may contain `unsafe`, but every
//!    site must carry a `// SAFETY:` justification on the same line or
//!    in the comment block directly above (the textual mirror of the
//!    crate-level `clippy::undocumented_unsafe_blocks = "deny"`, so the
//!    discipline also covers cfg'd-out tiers the compiler never sees).
//! 2. **wall-clock** — `Instant::now`, `SystemTime` and `thread_rng`
//!    must not appear in simulated-clock / deterministic code. Wall-clock
//!    trainer files opt out with a `// xtask: allow(wall-clock)` pragma.
//! 3. **ordering-justification** — every `Ordering::` usage must carry a
//!    `// ordering:` justification, on the same line or in the comment
//!    block immediately above. Import lines are exempt.
//! 4. **no-unwrap** — `.unwrap()` / `.expect(` are banned in library
//!    hot paths (the six algorithm crates' `src/` trees) outside
//!    `#[cfg(test)]` blocks, except files listed in
//!    `crates/xtask/lint-allow.txt`.
//! 5. **payload-copy** — `.to_vec()` / `.clone()` are banned inside
//!    `crates/cluster/src/` (outside `#[cfg(test)]`): the exchange path
//!    is zero-allocation by design, so payload copies must go through
//!    the buffer pool's counted entry points. Deliberate sites
//!    (non-payload handle clones) carry a
//!    `// xtask: allow(payload-copy)` justification on the same line or
//!    in the comment block directly above.
//! 6. **step-alloc** — `.to_vec()` / `.clone()` / `Vec::new()` are
//!    banned inside the per-step hot-path function bodies (outside
//!    `#[cfg(test)]`): `fn forward*` / `fn backward*` / `fn infer*` in
//!    `crates/nn/src/`, and the serving request path in
//!    `crates/serve/src/` (`fn submit*` / `close*` / `dispatch*` /
//!    `recycle*` / `drain*` / `advance*` / `infer*` / `run_*`). The
//!    training step and the steady-state serving path are
//!    zero-allocation after warm-up (DESIGN.md §11, §16), so activation,
//!    cache, and request buffers must be sized through the counted
//!    scratch (`ensure_*`/`shape_tensor`) or the batcher's recycled
//!    pools. Deliberate sites (the allocating inference path, `Arc`
//!    refcount clones) carry a `// xtask: allow(step-alloc)`
//!    justification on the same line or in the comment block directly
//!    above.
//! 7. **tag-discipline** — point-to-point tag arguments in
//!    `crates/cluster/src/` and `crates/core/src/` must come from the
//!    named registry (`easgd_cluster::tags`), never bare integer
//!    literals, and tag-named `u32` constants may not be defined from
//!    literals outside the registry module. Deliberate sites carry a
//!    `// xtask: allow(tag-literal)` justification.
//! 8. **backend-discipline** — thread primitives (`thread::spawn`,
//!    `thread::scope`, `spawn_scoped`, `thread::sleep`, `yield_now`)
//!    and blocking argless `.recv()` / `.join()` calls are banned in
//!    `crates/cluster/src/` and `crates/core/src/` (outside
//!    `#[cfg(test)]`): how a rank blocks and wakes is the execution
//!    backend's business (`crates/cluster/src/backend.rs`, exempt along
//!    with the channel that implements blocking recv), so trainer code
//!    stays runnable on the event backend. Genuine real-thread sites
//!    (wall-clock trainers, Hogwild) carry a
//!    `// xtask: allow(thread-primitive)` justification.
//!
//! [`lint_workspace`] additionally reports **stale-allow**: entries in
//! `crates/xtask/lint-allow.txt` that no longer name an existing file —
//! a dead exemption that would silently re-admit `unwrap` if the path
//! ever came back — and entries in `crates/xtask/simd-allow.txt` that
//! name a missing file *or* a file that no longer contains any `unsafe`
//! (an exemption with nothing left to exempt would silently sanction
//! future unsafe).
//!
//! The pass works on a *stripped* view of each file — comments, string
//! and char literals blanked out — so tokens inside comments or strings
//! never fire, while pragma and justification detection reads the raw
//! comment text.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Pragma that exempts a whole file from the wall-clock rule.
pub const WALL_CLOCK_PRAGMA: &str = "xtask: allow(wall-clock)";

/// Pragma that justifies one payload copy site in `crates/cluster/src/`
/// (same line or the comment block directly above).
pub const PAYLOAD_COPY_PRAGMA: &str = "xtask: allow(payload-copy)";

/// Pragma that justifies one allocation site inside a `forward*` /
/// `backward*` body in `crates/nn/src/` (same line or the comment block
/// directly above).
pub const STEP_ALLOC_PRAGMA: &str = "xtask: allow(step-alloc)";

/// Pragma that justifies one bare-literal tag site in the comm-using
/// crates (same line or the comment block directly above).
pub const TAG_LITERAL_PRAGMA: &str = "xtask: allow(tag-literal)";

/// Pragma that justifies one direct thread-primitive / blocking-call
/// site outside the execution backend (same line or the comment block
/// directly above).
pub const THREAD_PRIMITIVE_PRAGMA: &str = "xtask: allow(thread-primitive)";

/// Thread-primitive tokens banned outside the execution backend
/// (rule 8). `thread::panicking` is deliberately absent: it is a query,
/// not a scheduling primitive, and strict-invariants `Drop` impls need
/// it.
const THREAD_PRIMITIVE_TOKENS: &[&str] = &[
    "thread::spawn",
    "thread::scope",
    "spawn_scoped",
    "thread::sleep",
    "yield_now",
];

/// `Comm` methods taking a tag argument, with the tag's zero-based
/// position in the argument list. Calls with too few arguments (e.g.
/// `std::sync::mpsc`-style `.send(msg)` or argless `.recv()`) are
/// skipped — only the communicator signatures are in scope.
const TAG_ARG_METHODS: &[(&str, usize)] = &[
    (".send(", 1),
    (".send_from(", 1),
    (".send_costed(", 1),
    (".send_from_costed(", 1),
    (".send_payload_costed(", 1),
    (".recv_into(", 1),
    (".recv_costed_into(", 1),
    (".recv_any_into(", 0),
    (".isend(", 1),
    (".isend_from(", 1),
    (".irecv_into(", 1),
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn blank(c: char) -> char {
    if c == '\n' {
        '\n'
    } else {
        ' '
    }
}

/// Returns `source` with comments and string/char literal *contents*
/// blanked to spaces, newlines preserved, so token scans can't be fooled
/// by text in comments or strings. Handles nested block comments, raw
/// strings (`r"…"`, `r#"…"#`, byte variants) and escapes; `'a` lifetimes
/// are kept, `'x'` char literals are blanked.
pub fn strip_comments_and_strings(source: &str) -> String {
    let b: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: (b)?r#*".
        if (c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r'))) && !prev_is_ident(&b, i) {
            let r_pos = if c == 'b' { i + 1 } else { i };
            let mut j = r_pos + 1;
            while b.get(j) == Some(&'#') {
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                let hashes = j - (r_pos + 1);
                for &ch in &b[i..=j] {
                    out.push(blank(ch));
                }
                i = j + 1;
                while i < b.len() {
                    if b[i] == '"' {
                        let mut h = 0;
                        while h < hashes && b.get(i + 1 + h) == Some(&'#') {
                            h += 1;
                        }
                        if h == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Plain (possibly byte) string.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < b.len() {
                if b[i] == '\\' && i + 1 < b.len() {
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                let done = b[i] == '"';
                out.push(if done { ' ' } else { blank(b[i]) });
                i += 1;
                if done {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if b.get(i + 1) == Some(&'\\') {
                out.push_str("  ");
                i += 2;
                while i < b.len() && b[i] != '\'' {
                    out.push(blank(b[i]));
                    i += 1;
                }
                if i < b.len() {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if b.get(i + 2) == Some(&'\'') {
                out.push_str("   ");
                i += 3;
                continue;
            }
            out.push('\'');
            i += 1;
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True if `needle` occurs in `line` delimited by non-identifier chars.
fn has_token(line: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0 || !is_ident_char(line[..abs].chars().next_back().unwrap_or(' '));
        let after_ok = !line[abs + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

/// Line spans (0-based, inclusive) of `#[cfg(test)]`-gated blocks,
/// computed by brace matching on the stripped source.
fn cfg_test_spans(stripped_lines: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < stripped_lines.len() {
        if stripped_lines[i].contains("#[cfg(test)]") {
            // Find the opening brace of the gated item, then its match.
            let mut depth = 0usize;
            let mut opened = false;
            let start = i;
            let mut j = i;
            'outer: while j < stripped_lines.len() {
                for ch in stripped_lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            spans.push((start, j.min(stripped_lines.len() - 1)));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], line: usize) -> bool {
    spans.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Step hot-path function-name prefixes for `crates/nn/src/`: the
/// training step plus the forward-only serving entry points.
const NN_STEP_FN_PREFIXES: &[&str] = &["forward", "backward", "infer"];

/// Step hot-path function-name prefixes for `crates/serve/src/`: every
/// function on the per-request path (batching, dispatch, recycling,
/// replica inference) must stay pooled-allocation-free.
const SERVE_STEP_FN_PREFIXES: &[&str] = &[
    "submit", "close", "dispatch", "recycle", "drain", "advance", "infer", "run_",
];

/// True if `line` declares a function whose name starts with one of
/// `prefixes` (the per-step hot-path naming convention).
fn is_step_fn_decl(line: &str, prefixes: &[&str]) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find("fn ") {
        let abs = start + pos;
        let before_ok = abs == 0 || !is_ident_char(line[..abs].chars().next_back().unwrap_or(' '));
        if before_ok {
            let name = line[abs + 3..].trim_start();
            if prefixes.iter().any(|p| name.starts_with(p)) {
                return true;
            }
        }
        start = abs + 3;
    }
    false
}

/// Line spans (0-based, inclusive) of hot-path `fn <prefix>*` bodies,
/// brace-matched on the stripped source. Bodiless trait signatures
/// (terminated by `;` before any `{`) yield no span.
fn step_fn_spans(stripped_lines: &[&str], prefixes: &[&str]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < stripped_lines.len() {
        if !is_step_fn_decl(stripped_lines[i], prefixes) {
            i += 1;
            continue;
        }
        let start = i;
        let mut depth = 0usize;
        let mut opened = false;
        let mut bodiless = false;
        let mut j = i;
        'outer: while j < stripped_lines.len() {
            for ch in stripped_lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break 'outer;
                        }
                    }
                    ';' if !opened => {
                        bodiless = true;
                        break 'outer;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        if !bodiless {
            spans.push((start, j.min(stripped_lines.len() - 1)));
        }
        i = j + 1;
    }
    spans
}

/// Lints one file's source. `hot_path` enables the no-unwrap rule (the
/// caller has already applied the allowlist).
pub fn lint_source(file: &str, source: &str, hot_path: bool) -> Vec<Finding> {
    lint_source_with(file, source, hot_path, false)
}

/// [`lint_source`] with the simd-discipline switch: `simd_exempt` marks
/// a file listed in `crates/xtask/simd-allow.txt`, where `unsafe` is
/// sanctioned but every site must carry a `// SAFETY:` justification
/// (rule 1 then reports `simd-discipline` instead of `no-unsafe`).
pub fn lint_source_with(
    file: &str,
    source: &str,
    hot_path: bool,
    simd_exempt: bool,
) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let wall_clock_allowed = raw_lines
        .iter()
        .any(|l| l.contains("//") && l.contains(WALL_CLOCK_PRAGMA));
    let test_spans = cfg_test_spans(&stripped_lines);
    let step_spans = if file.starts_with("crates/nn/src/") {
        step_fn_spans(&stripped_lines, NN_STEP_FN_PREFIXES)
    } else if file.starts_with("crates/serve/src/") {
        step_fn_spans(&stripped_lines, SERVE_STEP_FN_PREFIXES)
    } else {
        Vec::new()
    };
    let backend_scope = (file.starts_with("crates/cluster/src/")
        || file.starts_with("crates/core/src/"))
        && file != "crates/cluster/src/backend.rs"
        && file != "crates/cluster/src/channel.rs";
    let mut findings = Vec::new();

    for (idx, sline) in stripped_lines.iter().enumerate() {
        let lineno = idx + 1;

        // Rule 1: no-unsafe / simd-discipline. In a simd-allowlisted
        // file each `unsafe` site needs a `// SAFETY:` justification;
        // everywhere else `unsafe` is banned outright.
        if has_token(sline, "unsafe") {
            if !simd_exempt {
                findings.push(Finding {
                    file: file.to_string(),
                    line: lineno,
                    rule: "no-unsafe",
                    message: "`unsafe` is banned workspace-wide (the tree is unsafe-free); \
                              only the explicit-SIMD microkernel files in \
                              crates/xtask/simd-allow.txt are exempt"
                        .to_string(),
                });
            } else if !comment_justified(&raw_lines, idx, "SAFETY:") {
                findings.push(Finding {
                    file: file.to_string(),
                    line: lineno,
                    rule: "simd-discipline",
                    message: "`unsafe` in a simd-allowlisted file without a `// SAFETY:` \
                              justification (same line or the comment block directly above)"
                        .to_string(),
                });
            }
        }

        // Rule 2: wall-clock / nondeterminism sources.
        if !wall_clock_allowed {
            for tok in ["Instant::now", "SystemTime", "thread_rng"] {
                if has_token(sline, tok) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: lineno,
                        rule: "wall-clock",
                        message: format!(
                            "`{tok}` in a file without `// {WALL_CLOCK_PRAGMA}`: \
                             simulated-clock and deterministic paths must not read \
                             wall time or OS entropy"
                        ),
                    });
                }
            }
        }

        // Rule 3: ordering-justification. Only the atomic memory-ordering
        // variants count; `std::cmp::Ordering::{Less,Equal,Greater}` are
        // unrelated and exempt.
        let atomic_ordering = [
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ]
        .iter()
        .any(|tok| has_token(sline, tok));
        if atomic_ordering {
            let trimmed = sline.trim_start();
            let is_import = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
            if !is_import && !ordering_justified(&raw_lines, idx) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: lineno,
                    rule: "ordering-justification",
                    message: "atomic `Ordering::` usage without a `// ordering:` \
                              justification comment (same line or the comment block \
                              directly above)"
                        .to_string(),
                });
            }
        }

        // Rule 4: no-unwrap in library hot paths.
        if hot_path
            && !in_spans(&test_spans, idx)
            && (sline.contains(".unwrap()") || sline.contains(".expect("))
        {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "no-unwrap",
                message: "`.unwrap()`/`.expect(` in a library hot path; return an \
                          error or add the file to crates/xtask/lint-allow.txt \
                          with a justification"
                    .to_string(),
            });
        }

        // Rule 5: payload-copy — the comm crate's exchange path is
        // zero-allocation; copies must be pooled and counted, or carry a
        // per-site justification pragma.
        if file.starts_with("crates/cluster/src/")
            && !in_spans(&test_spans, idx)
            && (sline.contains(".to_vec()") || sline.contains(".clone()"))
            && !comment_justified(&raw_lines, idx, PAYLOAD_COPY_PRAGMA)
        {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "payload-copy",
                message: format!(
                    "`.to_vec()`/`.clone()` on the exchange path; route the copy \
                     through the buffer pool (`take_buffer`/`recv_into`/`send_from`) \
                     or justify the site with `// {PAYLOAD_COPY_PRAGMA}`"
                ),
            });
        }

        // Rule 6: step-alloc — per-step hot-path bodies (nn
        // forward/backward/infer, serve request path) size every buffer
        // through the counted scratch or the batcher's recycled pools;
        // stray allocations would break the zero-allocation steady
        // state.
        if in_spans(&step_spans, idx)
            && !in_spans(&test_spans, idx)
            && (sline.contains(".to_vec()")
                || sline.contains(".clone()")
                || sline.contains("Vec::new()"))
            && !comment_justified(&raw_lines, idx, STEP_ALLOC_PRAGMA)
        {
            findings.push(Finding {
                file: file.to_string(),
                line: lineno,
                rule: "step-alloc",
                message: format!(
                    "`.to_vec()`/`.clone()`/`Vec::new()` in a per-step hot path \
                     (nn forward/backward/infer, serve request path); size the \
                     buffer through the counted scratch \
                     (`ensure_f32`/`shape_tensor`) or a recycled pool, or \
                     justify the site with `// {STEP_ALLOC_PRAGMA}`"
                ),
            });
        }

        // Rule 8: backend-discipline — trainer and comm code must not
        // reach for thread primitives or blocking calls directly; those
        // live behind the execution-backend seam so the same code runs
        // on the discrete-event engine. `.recv()`/`.join()` match only
        // the argless blocking forms (a call with arguments, such as a
        // `join("…")` on strings, is fine).
        if backend_scope && !in_spans(&test_spans, idx) {
            let thread_tok = THREAD_PRIMITIVE_TOKENS
                .iter()
                .find(|tok| has_token(sline, tok))
                .copied()
                .or_else(|| {
                    [".recv()", ".join()"]
                        .into_iter()
                        .find(|t| sline.contains(t))
                });
            if let Some(tok) = thread_tok {
                if !comment_justified(&raw_lines, idx, THREAD_PRIMITIVE_PRAGMA) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: lineno,
                        rule: "backend-discipline",
                        message: format!(
                            "`{tok}` outside the execution backend; rank scheduling \
                             and blocking belong in crates/cluster/src/backend.rs \
                             (or justify a genuine real-thread site with \
                             `// {THREAD_PRIMITIVE_PRAGMA}`)"
                        ),
                    });
                }
            }
        }
    }

    // Rule 7: tag-discipline — comm tags in the cluster/core crates come
    // from the named registry, not bare literals. Runs on the whole
    // stripped text (calls span lines) with balanced-paren argument
    // extraction.
    let tag_scope = (file.starts_with("crates/cluster/src/")
        || file.starts_with("crates/core/src/"))
        && file != "crates/cluster/src/tags.rs";
    if tag_scope {
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(stripped.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        let line_of = |offset: usize| line_starts.partition_point(|&s| s <= offset) - 1;
        for &(needle, tag_idx) in TAG_ARG_METHODS {
            let mut start = 0;
            while let Some(pos) = stripped[start..].find(needle) {
                let abs = start + pos;
                start = abs + needle.len();
                let idx = line_of(abs);
                if in_spans(&test_spans, idx)
                    || comment_justified(&raw_lines, idx, TAG_LITERAL_PRAGMA)
                {
                    continue;
                }
                let Some(args) = top_level_args(&stripped, abs + needle.len() - 1) else {
                    continue;
                };
                if args.len() <= tag_idx {
                    continue;
                }
                let tag_arg = args[tag_idx].trim();
                if tag_arg.starts_with(|c: char| c.is_ascii_digit()) {
                    findings.push(Finding {
                        file: file.to_string(),
                        line: idx + 1,
                        rule: "tag-discipline",
                        message: format!(
                            "bare integer literal `{tag_arg}` as the tag of `{}…)`; draw \
                             tags from the `easgd_cluster::tags` registry or justify the \
                             site with `// {TAG_LITERAL_PRAGMA}`",
                            needle.trim_start_matches('.')
                        ),
                    });
                }
            }
        }
        // Tag constants defined from literals belong in the registry.
        for (idx, sline) in stripped_lines.iter().enumerate() {
            if in_spans(&test_spans, idx) {
                continue;
            }
            let Some(cpos) = sline.find("const ") else {
                continue;
            };
            let decl = &sline[cpos..];
            if !(decl.contains("TAG") && decl.contains(": u32")) {
                continue;
            }
            let Some(eq) = decl.find('=') else { continue };
            let rhs = decl[eq + 1..].trim_start();
            if rhs.starts_with(|c: char| c.is_ascii_digit())
                && !comment_justified(&raw_lines, idx, TAG_LITERAL_PRAGMA)
            {
                findings.push(Finding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "tag-discipline",
                    message: format!(
                        "tag constant defined from a literal outside the registry; move \
                         it into `crates/cluster/src/tags.rs` or justify the site with \
                         `// {TAG_LITERAL_PRAGMA}`"
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(b.rule)));
    findings
}

/// Top-level argument texts of the call whose opening parenthesis is at
/// byte `open` in `stripped` (commas nested in parens/brackets/braces
/// don't split). `None` when the call never closes (malformed input).
fn top_level_args(stripped: &str, open: usize) -> Option<Vec<String>> {
    let mut depth = 0usize;
    let mut args = vec![String::new()];
    for ch in stripped[open..].chars() {
        match ch {
            '(' | '[' | '{' => {
                if depth > 0 {
                    if let Some(last) = args.last_mut() {
                        last.push(ch);
                    }
                }
                depth += 1;
            }
            ')' | ']' | '}' => {
                if depth == 1 && ch == ')' {
                    if args.len() == 1 && args[0].trim().is_empty() {
                        args.clear();
                    }
                    return Some(args);
                }
                depth = depth.saturating_sub(1);
                if let Some(last) = args.last_mut() {
                    last.push(ch);
                }
            }
            ',' if depth == 1 => args.push(String::new()),
            _ => {
                if depth > 0 {
                    if let Some(last) = args.last_mut() {
                        last.push(ch);
                    }
                }
            }
        }
    }
    None
}

/// Serializes findings as a JSON array (stable field order, no external
/// dependencies) for `lint --json` consumers.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\": \"");
        out.push_str(&json_escape(&f.file));
        out.push_str("\", \"line\": ");
        out.push_str(&f.line.to_string());
        out.push_str(", \"rule\": \"");
        out.push_str(&json_escape(f.rule));
        out.push_str("\", \"message\": \"");
        out.push_str(&json_escape(&f.message));
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A `// ordering:` comment on the line itself or in the contiguous
/// comment block directly above justifies an `Ordering::` usage.
fn ordering_justified(raw_lines: &[&str], idx: usize) -> bool {
    comment_justified(raw_lines, idx, "ordering:")
}

/// `needle` inside a `//` comment on the line itself or in the contiguous
/// comment block directly above justifies the flagged usage.
fn comment_justified(raw_lines: &[&str], idx: usize, needle: &str) -> bool {
    let has_note = |l: &str| l.find("//").is_some_and(|pos| l[pos..].contains(needle));
    if raw_lines.get(idx).copied().is_some_and(has_note) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if t.starts_with("//") {
            if has_note(t) {
                return true;
            }
        } else if t.is_empty() {
            break;
        } else {
            // A code line ends the comment block — but it may itself be a
            // justified sibling in the same CAS loop only if annotated;
            // stop either way.
            break;
        }
    }
    false
}

/// The crates whose `src/` trees count as library hot paths for the
/// no-unwrap rule.
const HOT_PATH_PREFIXES: [&str; 7] = [
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/data/src/",
    "crates/hardware/src/",
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/serve/src/",
];

fn is_hot_path(rel: &str) -> bool {
    HOT_PATH_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Parses `lint-allow.txt`: one workspace-relative path per line, `#`
/// comments and blanks ignored.
pub fn parse_allowlist(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root`, returning all findings sorted by
/// path and line. Also reports `stale-allow` for `lint-allow.txt`
/// entries that no longer name an existing file.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_path = root.join("crates/xtask/lint-allow.txt");
    let allow_text = fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = parse_allowlist(&allow_text);
    let simd_allow_text =
        fs::read_to_string(root.join("crates/xtask/simd-allow.txt")).unwrap_or_default();
    let simd_allow = parse_allowlist(&simd_allow_text);
    let mut findings = stale_allow_findings(root, &allow_text);
    findings.extend(stale_simd_allow_findings(root, &simd_allow_text));
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let hot = is_hot_path(&rel) && !allow.contains(rel.as_str());
        findings.extend(lint_source_with(
            &rel,
            &source,
            hot,
            simd_allow.contains(rel.as_str()),
        ));
    }
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(b.rule))
    });
    Ok(findings)
}

/// `stale-allow` findings for allowlist entries naming files that no
/// longer exist (line numbers refer to `lint-allow.txt` itself).
fn stale_allow_findings(root: &Path, allow_text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in allow_text.lines().enumerate() {
        let entry = line.split('#').next().unwrap_or("").trim();
        if entry.is_empty() {
            continue;
        }
        if !root.join(entry).is_file() {
            findings.push(Finding {
                file: "crates/xtask/lint-allow.txt".to_string(),
                line: idx + 1,
                rule: "stale-allow",
                message: format!(
                    "allowlist entry `{entry}` names a file that no longer exists; \
                     remove the dead exemption"
                ),
            });
        }
    }
    findings
}

/// `stale-allow` findings for `simd-allow.txt`: entries naming a missing
/// file, or a file that no longer contains any `unsafe` token — either
/// way the exemption is dead and would silently sanction future unsafe
/// (line numbers refer to `simd-allow.txt` itself).
fn stale_simd_allow_findings(root: &Path, allow_text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in allow_text.lines().enumerate() {
        let entry = line.split('#').next().unwrap_or("").trim();
        if entry.is_empty() {
            continue;
        }
        let path = root.join(entry);
        let message = match fs::read_to_string(&path) {
            Err(_) => format!(
                "simd allowlist entry `{entry}` names a file that no longer exists; \
                 remove the dead exemption"
            ),
            Ok(source) => {
                let still_unsafe = strip_comments_and_strings(&source)
                    .lines()
                    .any(|l| has_token(l, "unsafe"));
                if still_unsafe {
                    continue;
                }
                format!(
                    "simd allowlist entry `{entry}` no longer contains `unsafe`; \
                     remove the stale exemption so it cannot silently re-admit unsafe"
                )
            }
        };
        findings.push(Finding {
            file: "crates/xtask/simd-allow.txt".to_string(),
            line: idx + 1,
            rule: "stale-allow",
            message,
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    // Forbidden tokens are spelled via concat! so this test file passes
    // its own lint even when read as a seeded-violation fixture.
    fn instant_now() -> String {
        ["Instant", "::now"].concat()
    }

    #[test]
    fn strip_blanks_comments_and_strings() {
        let src = "let x = \"unsafe\"; // unsafe here\n/* unsafe */ let y = 'u';\n";
        let s = strip_comments_and_strings(src);
        assert!(!s.contains("unsafe"), "stripped: {s}");
        assert!(s.contains("let x ="));
        assert!(s.contains("let y ="));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"Ordering::Relaxed\"#; }";
        let s = strip_comments_and_strings(src);
        assert!(!s.contains("Ordering::"));
        assert!(s.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn no_unsafe_fires_on_seeded_violation() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let f = lint_source("x.rs", src, false);
        assert!(f.iter().any(|f| f.rule == "no-unsafe"), "{f:?}");
    }

    #[test]
    fn no_unsafe_ignores_comments_strings_and_identifiers() {
        let src = "// unsafe\nlet s = \"unsafe\";\nlet unsafe_like = 1;\n";
        assert!(lint_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn simd_exempt_file_requires_safety_justification() {
        // Unjustified unsafe in an allowlisted file: simd-discipline,
        // not no-unsafe.
        let bare = "fn f() { unsafe { core::arch::x86_64::_mm_sfence() } }";
        let f = lint_source_with("crates/tensor/src/simd.rs", bare, true, true);
        assert!(f.iter().any(|f| f.rule == "simd-discipline"), "{f:?}");
        assert!(f.iter().all(|f| f.rule != "no-unsafe"), "{f:?}");
        // A SAFETY comment on the same line or directly above satisfies it.
        let same_line = "fn f() { unsafe { x() } } // SAFETY: lanes bounded by the assert above";
        assert!(lint_source_with("s.rs", same_line, false, true).is_empty());
        let above = "// SAFETY: pointer stays inside the packed panel.\nfn f() { unsafe { x() } }";
        assert!(lint_source_with("s.rs", above, false, true).is_empty());
    }

    #[test]
    fn simd_exemption_does_not_leak_to_other_files() {
        let src = "fn f() { unsafe {} }";
        let f = lint_source_with("crates/tensor/src/gemm.rs", src, true, false);
        assert!(f.iter().any(|f| f.rule == "no-unsafe"), "{f:?}");
    }

    #[test]
    fn stale_simd_allow_reports_missing_and_unsafe_free_entries() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        // Line 1: the real simd module (live exemption — no finding).
        // Line 2: a file with no unsafe (stale). Line 3: missing (stale).
        let text =
            "crates/tensor/src/simd.rs\ncrates/xtask/src/lint.rs\ncrates/gone/src/never.rs\n";
        let f = stale_simd_allow_findings(root, text);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "stale-allow"));
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message.contains("no longer contains `unsafe`"),
            "{f:?}"
        );
        assert_eq!(f[1].line, 3);
        assert!(f[1].message.contains("no longer exists"), "{f:?}");
    }

    #[test]
    fn wall_clock_fires_on_planted_instant_now_in_sim_module() {
        let src = format!("fn tick() {{ let t = {}(); }}", instant_now());
        let f = lint_source("crates/cluster/src/clock.rs", &src, false);
        assert!(f.iter().any(|f| f.rule == "wall-clock"), "{f:?}");
    }

    #[test]
    fn wall_clock_pragma_opts_out() {
        let src = format!(
            "// {}\nfn tick() {{ let t = {}(); }}",
            WALL_CLOCK_PRAGMA,
            instant_now()
        );
        assert!(lint_source("crates/core/src/shared.rs", &src, false).is_empty());
    }

    #[test]
    fn thread_rng_and_system_time_also_fire() {
        let src = "fn f() { let r = rand::thread_rng(); let t = std::time::SystemTime::now(); }";
        let f = lint_source("x.rs", src, false);
        assert_eq!(
            f.iter().filter(|f| f.rule == "wall-clock").count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn unannotated_ordering_fires() {
        let src = "fn f(a: &AtomicU32) { a.load(Ordering::Relaxed); }";
        let f = lint_source("x.rs", src, false);
        assert!(
            f.iter().any(|f| f.rule == "ordering-justification"),
            "{f:?}"
        );
    }

    #[test]
    fn same_line_and_block_justifications_pass() {
        let same = "a.load(Ordering::Relaxed); // ordering: racy read is the Hogwild model\n";
        assert!(lint_source("x.rs", same, false).is_empty());
        let above = "// ordering: single writer, relaxed suffices\n// (second comment line)\na.store(1, Ordering::Relaxed);\n";
        assert!(lint_source("x.rs", above, false).is_empty());
    }

    #[test]
    fn ordering_import_is_exempt() {
        let src = "use std::sync::atomic::{AtomicU32, Ordering};\n";
        assert!(lint_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn unwrap_fires_only_in_hot_paths_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        let hot = lint_source("crates/tensor/src/ops.rs", src, true);
        assert_eq!(
            hot.iter().filter(|f| f.rule == "no-unwrap").count(),
            1,
            "{hot:?}"
        );
        assert_eq!(hot[0].line, 1);
        let cold = lint_source("crates/bench/src/lib.rs", src, false);
        assert!(cold.iter().all(|f| f.rule != "no-unwrap"));
    }

    #[test]
    fn expect_also_fires() {
        let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"boom\") }";
        let f = lint_source("crates/core/src/hogwild.rs", src, true);
        assert!(f.iter().any(|f| f.rule == "no-unwrap"), "{f:?}");
    }

    #[test]
    fn allowlist_parsing_ignores_comments_and_blanks() {
        let a = parse_allowlist(
            "# header\ncrates/core/src/shared.rs\n\n  crates/cluster/src/comm.rs  # locks\n",
        );
        assert!(a.contains("crates/core/src/shared.rs"));
        assert!(a.contains("crates/cluster/src/comm.rs"));
        assert_eq!(a.len(), 2);
    }

    // Spelled via concat! so this file's own payload-copy literal scan
    // (which only applies to crates/cluster/src/ anyway) never trips on
    // the fixtures.
    fn to_vec_call() -> String {
        [".to_", "vec()"].concat()
    }

    #[test]
    fn payload_copy_fires_inside_cluster_src() {
        let src = format!("fn f(x: &[f32]) -> Vec<f32> {{ x{} }}", to_vec_call());
        let f = lint_source("crates/cluster/src/comm.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "payload-copy");
    }

    #[test]
    fn payload_copy_pragma_opts_out_per_site() {
        let src = format!(
            "// {}\n// compatibility shim.\nfn f(x: &[f32]) -> Vec<f32> {{ x{} }}\n\
             fn g(x: &[f32]) -> Vec<f32> {{ x{} }} // {}\n",
            PAYLOAD_COPY_PRAGMA,
            to_vec_call(),
            to_vec_call(),
            PAYLOAD_COPY_PRAGMA,
        );
        let f = lint_source("crates/cluster/src/comm.rs", &src, false);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn payload_copy_ignores_tests_and_other_crates() {
        // Other crates' sources are out of scope entirely.
        let src = format!("fn f(x: &[f32]) -> Vec<f32> {{ x{} }}", to_vec_call());
        assert!(lint_source("crates/core/src/sync.rs", &src, false).is_empty());
        // And #[cfg(test)] spans inside the cluster crate are exempt.
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f(x: &[f32]) -> Vec<f32> {{ x{} }}\n}}\n",
            to_vec_call()
        );
        assert!(lint_source("crates/cluster/src/comm.rs", &src, false).is_empty());
    }

    fn vec_new_call() -> String {
        ["Vec:", ":new()"].concat()
    }

    #[test]
    fn step_alloc_fires_inside_forward_backward_in_nn() {
        let src = format!(
            "impl Layer for L {{\n    fn forward_into(&mut self) {{ let v = {}; }}\n}}\n",
            vec_new_call()
        );
        let f = lint_source("crates/nn/src/dense.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "step-alloc");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn step_alloc_pragma_opts_out_per_site() {
        let src = format!(
            "fn backward(&mut self) {{\n    // {}\n    // inference-only path.\n    let v = x{};\n}}\n",
            STEP_ALLOC_PRAGMA,
            to_vec_call()
        );
        assert!(lint_source("crates/nn/src/pool.rs", &src, false).is_empty());
    }

    #[test]
    fn step_alloc_ignores_cold_fns_tests_and_other_crates() {
        // Constructors and clones outside forward*/backward* are fine.
        let src = format!(
            "fn new() -> Self {{ Self {{ cache: {} }} }}",
            vec_new_call()
        );
        assert!(lint_source("crates/nn/src/lrn.rs", &src, false).is_empty());
        // #[cfg(test)] spans are exempt even inside the nn crate.
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    fn forward_case() {{ let v = {}; }}\n}}\n",
            vec_new_call()
        );
        assert!(lint_source("crates/nn/src/conv.rs", &src, false).is_empty());
        // Other crates' forward fns are out of scope.
        let src = format!("fn forward(&mut self) {{ let v = {}; }}", vec_new_call());
        assert!(lint_source("crates/core/src/engine/local.rs", &src, false).is_empty());
    }

    #[test]
    fn step_alloc_fires_on_nn_infer_and_serve_request_path() {
        // `fn infer*` joined the nn hot set with the serving stack.
        let src = format!("fn infer_into(&mut self) {{ let v = {}; }}", vec_new_call());
        let f = lint_source("crates/nn/src/network.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "step-alloc");
        // The serve request path uses its own prefix set.
        for name in [
            "submit",
            "close_due",
            "dispatch",
            "recycle",
            "drain",
            "advance",
            "infer",
            "run_batch",
        ] {
            let src = format!("fn {name}(&mut self) {{ let v = x{}; }}", to_vec_call());
            let f = lint_source("crates/serve/src/batcher.rs", &src, false);
            assert_eq!(f.len(), 1, "fn {name}: {f:?}");
            assert_eq!(f[0].rule, "step-alloc");
        }
        // Cold serve fns (constructors, accessors) stay free to allocate.
        let src = format!("fn new() -> Self {{ Self {{ q: {} }} }}", vec_new_call());
        assert!(lint_source("crates/serve/src/engine.rs", &src, false).is_empty());
        // nn's forward-only prefixes don't leak into serve and vice
        // versa: a serve `fn forward` is cold, an nn `fn submit` is cold.
        let src = format!("fn forward(&mut self) {{ let v = {}; }}", vec_new_call());
        assert!(lint_source("crates/serve/src/session.rs", &src, false).is_empty());
        let src = format!("fn submit(&mut self) {{ let v = {}; }}", vec_new_call());
        assert!(lint_source("crates/nn/src/network.rs", &src, false).is_empty());
    }

    #[test]
    fn serve_src_is_a_no_unwrap_hot_path() {
        let f = lint_source(
            "crates/serve/src/batcher.rs",
            "fn f() { x.unwrap(); }",
            true,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "no-unwrap");
        assert!(
            super::is_hot_path("crates/serve/src/engine.rs"),
            "serve src must be wired into HOT_PATH_PREFIXES"
        );
    }

    #[test]
    fn step_alloc_skips_bodiless_trait_signatures() {
        // A bodiless trait signature must not open a span that swallows
        // the next item.
        let src = format!(
            "trait T {{\n    fn forward(&mut self);\n}}\nfn helper() {{ let v = {}; }}\n",
            vec_new_call()
        );
        assert!(lint_source("crates/nn/src/layer.rs", &src, false).is_empty());
    }

    #[test]
    fn tag_discipline_fires_on_bare_literal_tags() {
        let src = "fn f(comm: &mut Comm) { comm.send(1, 10, &[], TimeCategory::Other); }";
        let f = lint_source("crates/core/src/sync.rs", src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-discipline");
        // Hex literals and arithmetic on literals fire too, across lines.
        let src = "fn f(comm: &mut Comm) {\n    comm.recv_into(\n        0,\n        0x4000 + me as u32,\n        TimeCategory::Other,\n        &mut reply,\n    );\n}";
        let f = lint_source("crates/core/src/async_sim.rs", src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-discipline");
        assert_eq!(f[0].line, 2, "flagged at the call line");
    }

    #[test]
    fn tag_discipline_accepts_registry_names_and_pragma() {
        let src = "fn f(comm: &mut Comm) { comm.send(1, tags::SYNC_DATA, &[], cat); \
                   comm.recv_any_into(tags::ASYNC_REQ, cat, &mut buf); }";
        assert!(lint_source("crates/core/src/sync.rs", src, false).is_empty());
        let src = "fn f(comm: &mut Comm) {\n    // xtask: allow(tag-literal) — fixture tag.\n    comm.send(1, 7, &[], cat);\n}";
        assert!(lint_source("crates/core/src/sync.rs", src, false).is_empty());
    }

    #[test]
    fn tag_discipline_skips_short_args_tests_and_foreign_files() {
        // mpsc-style one-arg send and argless recv lack a tag position.
        let src = "fn f() { senders[to].send(msg); let m = rx.recv(); }";
        assert!(lint_source("crates/cluster/src/channel.rs", src, false).is_empty());
        // #[cfg(test)] spans are exempt.
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f(c: &mut Comm) { c.send(1, 10, &[], cat); }\n}\n";
        assert!(lint_source("crates/cluster/src/comm.rs", src, false).is_empty());
        // Out-of-scope crates and the registry itself are exempt.
        let src = "fn f(c: &mut Comm) { c.send(1, 10, &[], cat); }";
        assert!(lint_source("crates/nn/src/dense.rs", src, false).is_empty());
        assert!(lint_source("tests/protocol_check.rs", src, false).is_empty());
    }

    #[test]
    fn tag_discipline_flags_literal_tag_constants_outside_registry() {
        let src = "const TAG_DATA: u32 = 10;\n";
        let f = lint_source("crates/core/src/sync.rs", src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "tag-discipline");
        // The registry module itself defines tags from literals.
        assert!(lint_source("crates/cluster/src/tags.rs", src, false).is_empty());
        // Constants built from registry names are fine.
        let src = "const MY_TAG: u32 = tags::SYNC_DATA;\n";
        assert!(lint_source("crates/core/src/sync.rs", src, false).is_empty());
    }

    // Spelled via concat! so the fixtures don't trip this file's own
    // scan (rule 8 doesn't scope xtask anyway; belt and braces).
    fn thread_scope_call() -> String {
        ["std::thr", "ead::scope"].concat()
    }

    #[test]
    fn backend_discipline_fires_on_thread_primitives_in_trainer_code() {
        let src = format!("fn f() {{ {}(|s| {{}}); }}", thread_scope_call());
        let f = lint_source("crates/core/src/sync.rs", &src, false);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "backend-discipline");
        // Blocking argless recv/join also fire.
        let src = "fn f(rx: &Receiver<M>) { let m = rx.recv(); }";
        let f = lint_source("crates/cluster/src/comm.rs", src, false);
        assert!(f.iter().any(|f| f.rule == "backend-discipline"), "{f:?}");
        let src = "fn f(h: Handle) { h.join(); }";
        let f = lint_source("crates/core/src/engine/wall.rs", src, false);
        assert!(f.iter().any(|f| f.rule == "backend-discipline"), "{f:?}");
    }

    #[test]
    fn backend_discipline_skips_backend_channel_tests_and_argful_calls() {
        let src = format!("fn f() {{ {}(|s| {{}}); }}", thread_scope_call());
        // The backend module and the channel implementation are the seam.
        assert!(lint_source("crates/cluster/src/backend.rs", &src, false).is_empty());
        assert!(lint_source("crates/cluster/src/channel.rs", &src, false).is_empty());
        // Out-of-scope crates are fine.
        assert!(lint_source("crates/bench/src/lib.rs", &src, false).is_empty());
        // #[cfg(test)] spans are exempt.
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    fn f() {{ {}(|s| {{}}); }}\n}}\n",
            thread_scope_call()
        );
        assert!(lint_source("crates/core/src/sync.rs", &src, false).is_empty());
        // Argful recv/join (tagged comm recv, string join) don't match,
        // and thread::panicking is not a scheduling primitive.
        let src = "fn f(c: &mut Comm) { c.recv(0, tags::SYNC_DATA, cat); \
                   let s = parts.join(sep); let p = std::thread::panicking(); }";
        assert!(lint_source("crates/core/src/sync.rs", src, false).is_empty());
    }

    #[test]
    fn backend_discipline_pragma_opts_out_per_site() {
        let src = format!(
            "fn f() {{\n    // {}\n    // — real Hogwild threads, wall-clock trainer.\n    {}(|s| {{}});\n}}\n",
            THREAD_PRIMITIVE_PRAGMA,
            thread_scope_call()
        );
        assert!(lint_source("crates/core/src/convex.rs", &src, false).is_empty());
    }

    #[test]
    fn stale_allow_reports_dead_entries_with_lines() {
        let text = "# header\ncrates/xtask/src/lint.rs\ncrates/gone/src/never.rs # rationale\n";
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let f = stale_allow_findings(root, text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "stale-allow");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("crates/gone/src/never.rs"));
    }

    #[test]
    fn findings_serialize_to_json() {
        assert_eq!(findings_to_json(&[]), "[]");
        let f = vec![Finding {
            file: "a.rs".to_string(),
            line: 3,
            rule: "no-unsafe",
            message: "say \"no\"".to_string(),
        }];
        let json = findings_to_json(&f);
        assert!(json.contains("\"file\": \"a.rs\""), "{json}");
        assert!(json.contains("\"line\": 3"), "{json}");
        assert!(json.contains("\\\"no\\\""), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn findings_are_sorted_by_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { unsafe {} }\n";
        let f = lint_source("crates/tensor/src/ops.rs", src, true);
        assert!(f.windows(2).all(|w| w[0].line <= w[1].line), "{f:?}");
    }

    #[test]
    fn workspace_lint_is_clean() {
        // The tree itself must pass its own lint. CARGO_MANIFEST_DIR is
        // crates/xtask; the workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let findings = lint_workspace(&root).expect("lint runs");
        assert!(
            findings.is_empty(),
            "workspace lint found violations:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
