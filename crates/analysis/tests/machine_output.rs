//! The `--quick` output of `pxml-analyze` is a stable vocabulary of
//! `section.key=value` lines: it must equal the checked-in
//! `quick_machine.txt` byte for byte. A change that alters the vocabulary
//! on purpose regenerates the file with
//! `cargo run --release -p pxml_analysis --bin pxml-analyze -- --quick > crates/analysis/tests/quick_machine.txt`.

use std::process::Command;

#[test]
fn quick_machine_output_matches_the_golden_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_pxml-analyze"))
        .arg("--quick")
        .output()
        .expect("pxml-analyze runs");
    assert!(
        output.status.success(),
        "pxml-analyze failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("the machine format is UTF-8");
    assert_eq!(stdout, include_str!("quick_machine.txt"));
}
