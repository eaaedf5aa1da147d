//! `mdmp` keeps its exit codes when the reader of its output is gone: a
//! usage or error message written into a pipe without a reader (EPIPE)
//! must not become a panic and exit code 101.

use std::process::{Command, Stdio};

const MDMP: &str = env!("CARGO_BIN_EXE_mdmp");

/// The write end of a pipe whose only reader has already exited: a child
/// holds the read end as its stdin, and the test waits for it to finish
/// before handing the write end on.
fn closed_pipe() -> Stdio {
    let mut reader = Command::new(MDMP)
        .arg("help")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the pipe reader");
    let write_end = reader.stdin.take().expect("piped stdin");
    assert!(reader.wait().expect("reader exits").success());
    Stdio::from(write_end)
}

fn exit_code(args: &[&str], stdout: Stdio, stderr: Stdio) -> Option<i32> {
    Command::new(MDMP)
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .expect("run mdmp")
        .code()
}

#[test]
fn parse_error_into_a_closed_stderr_still_exits_2() {
    let code = exit_code(&["submit", "--wait", "5"], Stdio::null(), closed_pipe());
    assert_eq!(code, Some(2));
}

#[test]
fn command_error_into_a_closed_stderr_still_exits_1() {
    let code = exit_code(
        &[
            "compute",
            "--reference",
            "/nonexistent/reference.csv",
            "--m",
            "8",
            "--output",
            "/nonexistent/profile.csv",
        ],
        Stdio::null(),
        closed_pipe(),
    );
    assert_eq!(code, Some(1));
}

#[test]
fn usage_into_a_closed_stdout_still_exits_2() {
    let code = exit_code(&[], closed_pipe(), Stdio::null());
    assert_eq!(code, Some(2));
}
