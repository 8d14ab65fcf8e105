//! End-to-end cluster smoke test through the real `pbc` binary: the
//! ISSUE's acceptance criteria, asserted from actual process output.
//!
//! * On a 32-node mixed fleet, hierarchical COORD beats a uniform split
//!   of the same global budget on aggregate performance.
//! * A chaos run with node dropouts finishes with
//!   `cluster.budget_violations == 0`, read from a real `--trace` file.
//! * A calm run re-prices every node on its first epoch and, after that,
//!   only the nodes whose share moved (`cluster.evaluated_nodes`, read
//!   from a real `--trace` file).

use pbc_trace::json::{self, Value};
use pbc_trace::names;
use std::collections::BTreeMap;
use std::process::Command;

/// A 32-node fleet mixing every preset: memory-bound and compute-bound
/// hosts plus two generations of GPU cards.
const FLEET_SPEC: &str = "\
# hosts
10 ivybridge stream
8 haswell dgemm
6 ivybridge sra
# cards
5 titan-xp sgemm
3 titan-v minife
";

fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pbc-cli-cluster-{tag}-{}.{ext}", std::process::id()))
}

fn counters_from(path: &std::path::Path) -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    std::fs::remove_file(path).ok();
    let mut counters = BTreeMap::new();
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        if v.get("type").and_then(Value::as_str) == Some("counter") {
            counters.insert(
                v.get("name").and_then(Value::as_str).unwrap().to_string(),
                v.get("value").and_then(Value::as_u64).unwrap(),
            );
        }
    }
    counters
}

/// Pull `aggregate perf LABEL: X.XXX` out of the rendered comparison.
fn aggregate(stdout: &str, label: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{stdout}"));
    let tail = line.split(':').nth(1).unwrap_or_else(|| panic!("malformed line {line:?}"));
    let number = tail
        .split_whitespace()
        .next()
        .unwrap_or_else(|| panic!("no number in {line:?}"));
    number
        .parse()
        .unwrap_or_else(|e| panic!("bad aggregate in {line:?}: {e}"))
}

#[test]
fn coordinated_beats_uniform_on_a_32_node_mixed_fleet() {
    let spec = temp_path("static", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "4200"])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("32 nodes in 5 classes"), "{stdout}");

    let coord = aggregate(&stdout, "aggregate perf COORD");
    let uniform = aggregate(&stdout, "aggregate perf uniform-split");
    let oracle = aggregate(&stdout, "aggregate perf oracle");
    assert!(
        coord > uniform,
        "COORD ({coord}) must beat a uniform split ({uniform}) at the same global budget"
    );
    assert!(
        coord <= oracle + 1e-6,
        "COORD ({coord}) cannot beat the oracle ({oracle})"
    );
}

#[test]
fn dropout_chaos_survives_and_the_trace_proves_it() {
    let spec = temp_path("chaos", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let trace = temp_path("chaos", "jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "4200"])
        .args(["--plan", "node-dropouts", "--seed", "7", "--epochs", "40"])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("SURVIVED"), "no survival verdict in:\n{stdout}");

    let counters = counters_from(&trace);
    let read = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(read(names::CLUSTER_DROPOUTS) > 0, "the plan dropped no nodes");
    assert!(
        read(names::CLUSTER_REDISTRIBUTIONS) > 0,
        "dropouts must force the partitioner to move watts"
    );
    assert_eq!(
        read(names::CLUSTER_BUDGET_VIOLATIONS),
        0,
        "an epoch enforced more power than the global budget"
    );
}

#[test]
fn calm_epochs_after_the_first_reprice_fewer_than_every_node() {
    const NODES: u64 = 32;
    const EPOCHS: u64 = 8;
    let spec = temp_path("calm", "txt");
    std::fs::write(&spec, FLEET_SPEC).expect("spec file writes");
    let trace = temp_path("calm", "jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "4200"])
        .args(["--plan", "calm", "--epochs", &EPOCHS.to_string()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(
        output.status.success(),
        "pbc cluster failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let counters = counters_from(&trace);
    let evaluated = counters.get(names::CLUSTER_EVALUATED_NODES).copied().unwrap_or(0);
    // The static COORD and uniform-split comparisons price every node
    // from scratch, and so does the run's first epoch.
    let first = 3 * NODES;
    assert!(evaluated >= first, "only {evaluated} evaluations, fewer than {first}");
    assert!(
        evaluated - first < (EPOCHS - 1) * NODES,
        "calm epochs after the first re-priced {} node-epochs, every node every epoch",
        evaluated - first
    );
}

#[test]
fn cluster_rejects_an_unknown_plan_listing_the_real_ones() {
    let spec = temp_path("badplan", "txt");
    std::fs::write(&spec, "2 ivybridge stream\n").expect("spec file writes");
    let output = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(["cluster", "-p", spec.to_str().unwrap(), "-b", "400"])
        .args(["--plan", "no-such-plan", "--epochs", "5"])
        .output()
        .expect("pbc binary runs");
    std::fs::remove_file(&spec).ok();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("node-dropouts") && stderr.contains("flaky-writes"),
        "error should list the known cluster plans: {stderr}"
    );
}
