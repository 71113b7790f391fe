//! Source-level lint enforcing architectural invariants that the type
//! system cannot: the simulator stays deterministic (no wall-clock
//! reads), the runtime's backpressure story stays intact (exactly one
//! deliberately unbounded channel, behind the admission gate), and the
//! dispatcher keeps one ticket-resolution path.
//!
//! Plain text scanning is crude but cheap, runs in the ordinary test
//! suite, and fails with the offending file + line so violations are
//! one glance to fix.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("crate source dir exists") {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Lines matching `pattern` in any `.rs` file under `dir`, excluding
/// files whose name is in `exempt`, formatted as `path:line: text`.
fn offenders(dir: &Path, pattern: &str, exempt: &[&str]) -> Vec<String> {
    let mut hits = Vec::new();
    for path in rust_sources(dir) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if exempt.contains(&name) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file is UTF-8");
        for (idx, line) in text.lines().enumerate() {
            if line.contains(pattern) {
                hits.push(format!("{}:{}: {}", path.display(), idx + 1, line.trim()));
            }
        }
    }
    hits
}

fn repo_root() -> PathBuf {
    // This test lives in the workspace root package.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn sim_never_reads_the_wall_clock() {
    // The simulator is a cycle-accurate model: its notion of time is the
    // cycle counter, and identical inputs must give identical traces.
    // Wall-clock latency measurement belongs to the runtime layer.
    let hits = offenders(&repo_root().join("crates/sim/src"), "Instant::now", &[]);
    assert!(
        hits.is_empty(),
        "dpu-sim must not read wall-clock time:\n{}",
        hits.join("\n")
    );
}

#[test]
fn run_decoded_cycle_loop_never_allocates() {
    // The whole point of the pre-decoded pipeline is that per-cycle work
    // is indexing into flat arrays built once at decode time. Any heap
    // allocation inside the cycle loop silently re-introduces the
    // per-instruction cost the decoder exists to remove, so the loop is
    // fenced with markers and scanned for the allocating idioms.
    let path = repo_root().join("crates/sim/src/decoded.rs");
    let text = fs::read_to_string(&path).expect("decoded.rs exists and is UTF-8");
    let start = text
        .find("BEGIN run_decoded cycle loop")
        .expect("decoded.rs keeps the BEGIN marker on the cycle loop");
    let end = text
        .find("END run_decoded cycle loop")
        .expect("decoded.rs keeps the END marker on the cycle loop");
    assert!(start < end, "cycle-loop markers are out of order");
    let before = text[..start].lines().count();
    let mut hits = Vec::new();
    for (idx, line) in text[start..end].lines().enumerate() {
        for pattern in ["Vec::new", "vec![", "to_vec"] {
            if line.contains(pattern) {
                hits.push(format!(
                    "{}:{}: {}",
                    path.display(),
                    before + idx + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "run_decoded's cycle loop must not allocate:\n{}",
        hits.join("\n")
    );
}

#[test]
fn runtime_builds_no_unbounded_channels_outside_the_ingest_gate() {
    // Every queue in dpu-runtime is bounded so overload sheds at the
    // admission gate instead of accumulating memory. The one sanctioned
    // unbounded channel is `ingest::job_channel`, which sits *behind*
    // the gate and is capped by the admission limits themselves.
    let hits = offenders(
        &repo_root().join("crates/runtime/src"),
        "channel::unbounded",
        &["ingest.rs"],
    );
    assert!(
        hits.is_empty(),
        "dpu-runtime must not construct unbounded channels outside ingest.rs:\n{}",
        hits.join("\n")
    );
}

#[test]
fn dispatcher_resolves_tickets_in_one_place() {
    // Resolving an accepted job is one rule — win the claim, stamp the
    // completion, ledger the outcome, fulfil the ticket, mark the serving
    // window, release the in-flight count — and `Shared::resolve` is its
    // only copy. A second `.fulfill(` call site is a resolution path that
    // can forget one of those steps.
    let path = repo_root().join("crates/runtime/src/dispatch.rs");
    let text = fs::read_to_string(&path).expect("dispatch.rs exists and is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    let sites: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].trim_start().starts_with("//") && lines[i].contains(".fulfill("))
        .collect();
    let listed: Vec<String> = sites
        .iter()
        .map(|&i| format!("{}:{}: {}", path.display(), i + 1, lines[i].trim()))
        .collect();
    assert_eq!(
        sites.len(),
        1,
        "dispatch.rs must fulfil tickets at exactly one call site:\n{}",
        listed.join("\n")
    );
    let start = lines
        .iter()
        .position(|l| l.trim_start().starts_with("fn resolve("))
        .expect("dispatch.rs keeps `fn resolve`");
    let indent = lines[start].len() - lines[start].trim_start().len();
    let end = (start..lines.len())
        .find(|&i| lines[i] == format!("{}}}", " ".repeat(indent)))
        .expect("`fn resolve` has a closing brace");
    assert!(
        (start..end).contains(&sites[0]),
        "the one ticket fulfilment must sit inside `fn resolve` (lines {}-{}):\n{}",
        start + 1,
        end + 1,
        listed.join("\n")
    );
}

#[test]
fn runtime_allows_no_long_parameter_lists() {
    // The dispatcher's threads share their state through one `&Shared`;
    // a `too_many_arguments` allowance is the hand-threaded state coming
    // back.
    let hits = offenders(
        &repo_root().join("crates/runtime/src"),
        "too_many_arguments",
        &[],
    );
    assert!(
        hits.is_empty(),
        "dpu-runtime must not allow clippy::too_many_arguments:\n{}",
        hits.join("\n")
    );
}
