//! Pins the lint walker's file set against workspace membership.
//!
//! The walked roots must be exactly the existing `src`/`tests`/
//! `examples`/`benches` trees of every workspace member as the root
//! `Cargo.toml` declares them — so adding a crate (or a test tree to an
//! existing crate) cannot silently escape the lint gate, and non-member
//! trees (`vendor/`, `target/`) cannot leak in.

use std::path::{Path, PathBuf};

use xtask::walk;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn walked_roots_match_manifest_membership() {
    let root = repo_root();
    let members = walk::manifest_member_dirs(&root);
    assert!(
        members.len() >= 2,
        "expected the root package plus crates/*, got {members:?}"
    );
    assert!(members.contains(&root), "the root package is a member");

    let mut expected: Vec<PathBuf> = Vec::new();
    for member in &members {
        for sub in walk::PACKAGE_SUBDIRS {
            let dir = member.join(sub);
            if dir.is_dir() {
                expected.push(dir);
            }
        }
    }
    expected.sort();

    assert_eq!(
        walk::scan_roots(&root),
        expected,
        "walker roots diverged from workspace membership — \
         update crates/xtask/src/walk.rs to match the manifest"
    );
}

#[test]
fn walked_files_cover_every_authored_tree() {
    let root = repo_root();
    let files = walk::workspace_files(&root);
    let has = |suffix: &str| {
        files
            .iter()
            .any(|f| f.to_string_lossy().replace('\\', "/").ends_with(suffix))
    };

    // Bench binaries, examples, root integration tests, crate
    // integration tests — each once escaped an earlier walker.
    assert!(has("crates/bench/src/bin/figures.rs"));
    assert!(has("examples/quickstart.rs"));
    assert!(has("tests/end_to_end.rs"));
    assert!(
        has("crates/milp/tests/simplex_reference.rs") || has("crates/milp/tests/parallel_solve.rs")
    );
    assert!(has("crates/xtask/src/main.rs"));
    // The simplex module tree: files below a crate's `src/` top level.
    assert!(has("crates/milp/src/simplex/dual.rs"));
}

#[test]
fn vendored_and_generated_trees_stay_out() {
    let root = repo_root();
    for f in walk::workspace_files(&root) {
        let rel = f
            .strip_prefix(&root)
            .expect("walker only returns files under the root")
            .to_string_lossy()
            .replace('\\', "/");
        assert!(
            !rel.starts_with("vendor/") && !rel.starts_with("target/"),
            "non-authored file walked: {rel}"
        );
        assert!(
            !rel.contains("/fixtures/"),
            "lint-engine test data walked as workspace code: {rel}"
        );
    }
}
