//! The workspace's static-analysis and soundness gate, in the cargo-xtask
//! pattern: `cargo xtask check` (via the alias in `.cargo/config.toml`) runs
//! every check a PR must pass, and each sub-check is runnable on its own.
//!
//! | command | what it enforces |
//! |---------|------------------|
//! | `cargo xtask fmt` | `rustfmt` conformance (`rustfmt.toml`) |
//! | `cargo xtask clippy` | the `[workspace.lints]` deny wall |
//! | `cargo xtask build` | the workspace compiles, all targets |
//! | `cargo xtask test` | the full test suite in the dev profile, so `debug_assert!`-gated `MatchingCertificate` checks execute |
//! | `cargo xtask lint` | the `syn`-based AST lint pass over the whole-workspace call graph: banned constructs, the `Matcher` audit (no algorithm schedules outside the trait), no narrowing casts, `#[must_use]` coverage, paper doc tags, and the interprocedural `hot_path`/`lock_order`/`panic_free` reachability lints (see `lints/`, `callgraph/`); `--json` emits the machine-readable report on stdout |
//! | `cargo xtask check` | all of the above, in that order |
//!
//! The **soundness** prongs run the whole-program verifiers; each one probes
//! for its toolchain and — outside CI (`XTASK_SOUNDNESS=require`) — skips
//! with a notice when it is unavailable, so `cargo xtask soundness` is
//! always runnable locally:
//!
//! | command | what it proves |
//! |---------|----------------|
//! | `cargo xtask loom` | exhaustively model-checks the sweep's cursor/slot protocol *and* the daemon's shutdown/drain protocol (every SC interleaving) — stable toolchain, offline |
//! | `cargo xtask fuzz` | the adversarial wire-decoder harness: structure-aware mutations plus the committed `tests/corpus/` frames, every input must yield a typed `ProtocolError` — stable toolchain, offline |
//! | `cargo xtask miri` | UB-checks `wdm-core` unit/property tests and the `wdm-alloc-count` `GlobalAlloc` paths — nightly + miri component |
//! | `cargo xtask tsan` | ThreadSanitizer over the threaded-sweep tests — nightly + rust-src (`-Zbuild-std`) |
//! | `cargo xtask deny` | `cargo-deny` advisories/licenses/bans against the committed `deny.toml` |
//! | `cargo xtask soundness` | all five, in that order |
//!
//! The AST lint pass replaced the original line-based string scanner, which
//! was blind to block comments, raw strings, `unsafe{` without a trailing
//! space, and multi-line calls; the `banned` pass's unit tests pin exactly
//! those cases.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use xtask::lints;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("check", String::as_str);
    // In --json mode stdout carries the report and nothing else, so
    // `cargo xtask lint --json > report.json` yields a parseable file.
    let json = cmd == "lint" && args.iter().any(|a| a == "--json");
    let root = workspace_root();
    let ok = match cmd {
        "check" => {
            run_fmt(&root)
                && run_clippy(&root)
                && run_build(&root)
                && run_tests(&root)
                && lints::run(&root, false)
        }
        "fmt" => run_fmt(&root),
        "clippy" => run_clippy(&root),
        "build" => run_build(&root),
        "test" => run_tests(&root),
        "lint" => lints::run(&root, json),
        "loom" => run_loom(&root),
        "fuzz" => run_fuzz(&root),
        "miri" => run_miri(&root),
        "tsan" => run_tsan(&root),
        "deny" => run_deny(&root),
        "soundness" => {
            // Run all prongs even when an early one fails: a CI log showing
            // every red prong beats stopping at the first.
            let loom = run_loom(&root);
            let fuzz = run_fuzz(&root);
            let miri = run_miri(&root);
            let tsan = run_tsan(&root);
            let deny = run_deny(&root);
            loom && fuzz && miri && tsan && deny
        }
        other => {
            eprintln!("unknown xtask command `{other}`");
            eprintln!(
                "usage: cargo xtask \
                 [check|fmt|clippy|build|test|lint|loom|fuzz|miri|tsan|deny|soundness]"
            );
            return ExitCode::FAILURE;
        }
    };
    if ok {
        if json {
            eprintln!("xtask {cmd}: all checks passed");
        } else {
            println!("xtask {cmd}: all checks passed");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {cmd}: FAILED");
        ExitCode::FAILURE
    }
}

/// The workspace root: this file is compiled from `crates/xtask`, and the
/// alias always runs from inside the workspace, so walking up from the
/// manifest directory is reliable without any cargo-metadata dependency.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map_or(manifest.clone(), Path::to_path_buf)
}

fn run_step(root: &Path, name: &str, program: &str, args: &[&str]) -> bool {
    run_step_env(root, name, program, args, &[])
}

fn run_step_env(
    root: &Path,
    name: &str,
    program: &str,
    args: &[&str],
    envs: &[(&str, String)],
) -> bool {
    println!("==> {name}: {program} {}", args.join(" "));
    let mut command = Command::new(program);
    command.args(args).current_dir(root);
    for (key, value) in envs {
        command.env(key, value);
    }
    match command.status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("{name} failed with {status}");
            false
        }
        Err(err) => {
            eprintln!("{name} failed to start: {err}");
            false
        }
    }
}

fn run_fmt(root: &Path) -> bool {
    run_step(root, "fmt", "cargo", &["fmt", "--check"])
}

/// Extra cargo flags from `XTASK_PROFILE`: `release` switches the compile
/// steps to the release profile. CI's release-with-debug-assertions matrix
/// leg combines this with `RUSTFLAGS=-C debug-assertions=on`, so the
/// `debug_assert!`-gated matching certificates also run inside optimized
/// code; the default (dev profile) has them on anyway.
fn profile_args() -> &'static [&'static str] {
    match std::env::var("XTASK_PROFILE").as_deref() {
        Ok("release") => &["--release"],
        _ => &[],
    }
}

fn run_clippy(root: &Path) -> bool {
    // The deny wall lives in `[workspace.lints]`; any violation is an error.
    let mut args = vec!["clippy", "--offline", "--workspace", "--all-targets"];
    args.extend_from_slice(profile_args());
    run_step(root, "clippy", "cargo", &args)
}

fn run_build(root: &Path) -> bool {
    let mut args = vec!["build", "--offline", "--workspace", "--all-targets"];
    args.extend_from_slice(profile_args());
    run_step(root, "build", "cargo", &args)
}

fn run_tests(root: &Path) -> bool {
    // Dev profile: debug assertions are on, so every schedule computed by
    // the suite passes through the MatchingCertificate hot-path checks.
    let mut args = vec!["test", "--offline", "--workspace", "--quiet"];
    args.extend_from_slice(profile_args());
    run_step(root, "test", "cargo", &args)
}

// ---------------------------------------------------------------------------
// Soundness prongs
// ---------------------------------------------------------------------------

/// Whether a missing soundness toolchain is a hard failure (CI sets
/// `XTASK_SOUNDNESS=require`) or a skip-with-notice (local default — the
/// offline container cannot install nightly components).
fn soundness_required() -> bool {
    std::env::var("XTASK_SOUNDNESS").as_deref() == Ok("require")
}

/// Handles an unavailable soundness tool: `false` (fail) when required,
/// `true` (skip) otherwise.
fn skip_or_fail(name: &str, needs: &str) -> bool {
    if soundness_required() {
        eprintln!("{name}: {needs} unavailable and XTASK_SOUNDNESS=require — failing");
        false
    } else {
        println!("{name}: SKIPPED ({needs} unavailable; set XTASK_SOUNDNESS=require to enforce)");
        true
    }
}

/// Whether `program args…` runs successfully, swallowing all output.
fn probe(program: &str, args: &[&str]) -> bool {
    Command::new(program)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Appends to an inherited environment variable (space-separated), so CI
/// legs that already set `RUSTFLAGS` compose with the soundness flags.
fn env_append(key: &str, extra: &str) -> String {
    let mut value = std::env::var(key).unwrap_or_default();
    if !value.is_empty() {
        value.push(' ');
    }
    value.push_str(extra);
    value
}

/// Loom: exhaustive model checking of the sweep coordination protocol
/// (`wdm-sim`) and the daemon's engine/completion/shutdown protocol
/// (`wdm-serve`). Stable-toolchain and offline (the `loom` shim is
/// in-tree), so this prong never skips. `--cfg loom` swaps
/// `wdm_sim::sweep_sync` / `wdm_serve::serve_sync` onto the modeled
/// atomics; release profile keeps the interleaving exploration fast.
fn run_loom(root: &Path) -> bool {
    let rustflags = env_append("RUSTFLAGS", "--cfg loom");
    run_step_env(
        root,
        "loom (wdm-sim)",
        "cargo",
        &["test", "--offline", "--release", "-p", "wdm-sim", "--test", "loom_sweep"],
        &[("RUSTFLAGS", rustflags.clone())],
    ) && run_step_env(
        root,
        "loom (wdm-serve)",
        "cargo",
        &["test", "--offline", "--release", "-p", "wdm-serve", "--test", "loom_serve"],
        &[("RUSTFLAGS", rustflags)],
    )
}

/// Fuzz: the adversarial wire-decoder harness over `wdm-serve`'s framing
/// layer — structure-aware proptest mutations plus the committed
/// `tests/corpus/` frames, with an over-read guard on every decode.
/// Stable-toolchain and offline, so this prong never skips. Release
/// profile matches how the daemon actually parses untrusted bytes.
fn run_fuzz(root: &Path) -> bool {
    run_step(
        root,
        "fuzz (decoder corpus)",
        "cargo",
        &["test", "--offline", "--release", "-p", "wdm-serve", "--test", "decoder_adversarial"],
    )
}

/// Miri: UB detection over `wdm-core`'s unit tests and property suites
/// (case counts shrink under `cfg(miri)`) and the dedicated
/// `wdm-alloc-count` test driving every `unsafe GlobalAlloc` path.
fn run_miri(root: &Path) -> bool {
    if !probe("rustup", &["run", "nightly", "cargo", "miri", "--version"]) {
        return skip_or_fail("miri", "nightly toolchain with the miri component");
    }
    run_step(
        root,
        "miri (wdm-core)",
        "rustup",
        &[
            "run",
            "nightly",
            "cargo",
            "miri",
            "test",
            "-p",
            "wdm-core",
            "--lib",
            "--test",
            "proptests",
        ],
    ) && run_step(
        root,
        "miri (wdm-alloc-count)",
        "rustup",
        &[
            "run",
            "nightly",
            "cargo",
            "miri",
            "test",
            "-p",
            "wdm-alloc-count",
            "--test",
            "alloc_paths",
        ],
    )
}

/// ThreadSanitizer: the threaded-sweep tests under `-Zsanitizer=thread`,
/// with std rebuilt (`-Zbuild-std`) so the runtime is instrumented too.
/// Complements loom: real weak-memory hardware, unbounded schedules,
/// probabilistic instead of exhaustive.
fn run_tsan(root: &Path) -> bool {
    if !probe("rustup", &["run", "nightly", "rustc", "--version"]) {
        return skip_or_fail("tsan", "nightly toolchain");
    }
    if !nightly_rust_src_present() {
        return skip_or_fail("tsan", "nightly rust-src component (-Zbuild-std)");
    }
    let rustflags = env_append("RUSTFLAGS", "-Zsanitizer=thread");
    run_step_env(
        root,
        "tsan",
        "rustup",
        &[
            "run",
            "nightly",
            "cargo",
            "test",
            "-Zbuild-std",
            "--target",
            "x86_64-unknown-linux-gnu",
            "--release",
            "-p",
            "wdm-sim",
            "--test",
            "parallel_sweep",
        ],
        &[("RUSTFLAGS", rustflags)],
    )
}

/// Whether the nightly toolchain has rust-src (required by `-Zbuild-std`).
fn nightly_rust_src_present() -> bool {
    let output = Command::new("rustup")
        .args(["run", "nightly", "rustc", "--print", "sysroot"])
        .stderr(Stdio::null())
        .output();
    let Ok(output) = output else { return false };
    if !output.status.success() {
        return false;
    }
    let sysroot = String::from_utf8_lossy(&output.stdout);
    Path::new(sysroot.trim()).join("lib/rustlib/src/rust/library/std").is_dir()
}

/// cargo-deny: advisory database, license allow-list, and duplicate-version
/// bans against the committed `deny.toml`.
fn run_deny(root: &Path) -> bool {
    if !probe("cargo", &["deny", "--version"]) {
        return skip_or_fail("deny", "the cargo-deny binary");
    }
    run_step(root, "deny", "cargo", &["deny", "check"])
}
