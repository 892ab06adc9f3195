//! CLI-contract tests for the `oneqc` batch driver, exercising the real
//! binary. Exit codes are part of the tool's interface: 0 = all compiled,
//! 1 = some circuits failed, 2 = usage error, 3 = input paths missing or
//! empty of `.qasm` files.

use oneq_service::json::parse_flat_object;
use std::path::PathBuf;
use std::process::Command;

fn oneqc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oneqc"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oneqc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn nonexistent_path_exits_3_with_targeted_error() {
    let output = oneqc()
        .arg("/definitely/not/a/real/path.qasm")
        .output()
        .expect("run oneqc");
    assert_eq!(output.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no such file or directory: /definitely/not/a/real/path.qasm"),
        "stderr names the missing path: {stderr}"
    );
    assert!(output.stdout.is_empty(), "no records on a failed scan");
}

#[test]
fn directory_without_qasm_files_exits_3_with_targeted_error() {
    let dir = tempdir("empty");
    std::fs::write(dir.join("readme.txt"), "not a circuit").unwrap();
    let output = oneqc().arg(&dir).output().expect("run oneqc");
    assert_eq!(output.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no .qasm files found"),
        "stderr explains the empty scan: {stderr}"
    );
    assert!(
        stderr.contains(&dir.display().to_string()),
        "stderr names the scanned path: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_still_exit_2() {
    let output = oneqc()
        .arg("--side")
        .arg("x")
        .arg("f.qasm")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    let output = oneqc().output().unwrap();
    assert_eq!(
        output.status.code(),
        Some(2),
        "no paths at all is a usage error"
    );
}

#[test]
fn compile_failures_exit_1_but_good_corpora_exit_0() {
    let dir = tempdir("mixed");
    std::fs::write(
        dir.join("good.qasm"),
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
    )
    .unwrap();
    let output = oneqc().arg(&dir).output().unwrap();
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"status\": \"ok\""));

    std::fs::write(dir.join("bad.qasm"), "OPENQASM 2.0;\nnope;\n").unwrap();
    let output = oneqc().arg(&dir).output().unwrap();
    assert_eq!(
        output.status.code(),
        Some(1),
        "a failing circuit flips the exit code"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("\"status\": \"error\""),
        "failed file still gets a record"
    );
    assert!(
        stdout.contains("\"status\": \"ok\""),
        "good file still compiles"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixture_corpus_records_are_identical_across_job_counts() {
    let dir = oneq_bench::qasm_fixture_dir();
    let run = |jobs: &str| {
        let output = oneqc()
            .arg(&dir)
            .args(["--jobs", jobs])
            .output()
            .expect("run oneqc");
        assert_eq!(
            output.status.code(),
            Some(0),
            "oneqc --jobs {jobs}: {output:?}"
        );
        String::from_utf8(output.stdout).expect("oneqc emits UTF-8")
    };
    let serial = run("1");
    assert_eq!(run("2"), serial, "--jobs 2 output differs from --jobs 1");

    let fixtures = oneq_service::corpus::qasm_files_flat(&dir).expect("read fixture corpus");
    let lines: Vec<&str> = serial.lines().collect();
    assert_eq!(lines.len(), fixtures.len(), "one record per fixture");
    for line in lines {
        let record = parse_flat_object(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let field = |key: &str| {
            record
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(field("status"), Some("ok"), "{line}");
        for key in [
            "file",
            "qubits",
            "gates",
            "depth",
            "fusions",
            "partitions",
            "fusion_graph_nodes",
        ] {
            assert!(field(key).is_some(), "`{key}` missing from {line}");
        }
    }
}
