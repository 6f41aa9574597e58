//! `airshare-serve` refuses a bad command line with exit code 2 and a
//! one-line message, before recording anything.

use std::process::Command;

#[test]
fn bad_command_lines_exit_2_without_panicking() {
    let cases: &[&[&str]] = &[
        &["--scale", "0"],
        &["--scale", "1.5"],
        &["--scale", "nan"],
        &["--seed", "x"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_airshare-serve"))
            .args(*args)
            .output()
            .expect("spawn airshare-serve");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("airshare-serve:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
