//! `airshare-paper` refuses a bad command line with exit code 2 and the
//! usage line, before running anything.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &[],
        &["fig16"],
        &["fig10", "--scale", "tenth"],
        &["fig10", "--threads", "0"],
        &["fig10", "--threads", "x"],
        &["fig10", "--json"],
        &["fig10", "--backend", "rtree"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_airshare-paper"))
            .args(*args)
            .output()
            .expect("spawn airshare-paper");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: airshare-paper"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
