//! Hygiene rules: workspace-wide conventions that apply to every file kind
//! (and, for target parity, to the build-gate files themselves).

use crate::lexer::TokenKind;
use crate::report::Violation;
use crate::rules::{FileCtx, Rule};
use crate::workspace::Workspace;

/// Every crate root (`lib.rs`, `main.rs`, `src/bin/*.rs`) must open with
/// `#![forbid(unsafe_code)]` — the workspace ships no unsafe, and `forbid`
/// (unlike `deny`) cannot be overridden further down.
pub struct ForbidUnsafe;

impl Rule for ForbidUnsafe {
    fn name(&self) -> &'static str {
        "forbid-unsafe"
    }

    fn summary(&self) -> &'static str {
        "crate roots must carry #![forbid(unsafe_code)]"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if !ctx.file.is_crate_root {
            return;
        }
        for i in 0..ctx.code.len() {
            if ctx.is_punct(i, "#")
                && ctx.is_punct(i + 1, "!")
                && ctx.is_punct(i + 2, "[")
                && ctx.is_ident(i + 3, "forbid")
                && ctx.is_punct(i + 4, "(")
                && ctx.is_ident(i + 5, "unsafe_code")
                && ctx.is_punct(i + 6, ")")
                && ctx.is_punct(i + 7, "]")
            {
                return;
            }
        }
        out.push(Violation {
            rule: self.name(),
            path: ctx.file.source.path.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: ctx.file.source.line_text(1).trim().to_string(),
        });
    }
}

/// `dbg!`, `todo!`, and `unimplemented!` anywhere — debugging scaffolding
/// and unfinished stubs must not land, test code included.
pub struct DebugMacro;

impl Rule for DebugMacro {
    fn name(&self) -> &'static str {
        "debug-macro"
    }

    fn summary(&self) -> &'static str {
        "no dbg!/todo!/unimplemented! anywhere in the workspace"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        for (i, tok) in ctx.code.iter().enumerate() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let name = ctx.text(i);
            if matches!(name, "dbg" | "todo" | "unimplemented") && ctx.is_punct(i + 1, "!") {
                out.push(ctx.violation(
                    self.name(),
                    *tok,
                    format!("`{name}!` must not land; remove the scaffolding or implement the stub"),
                ));
            }
        }
    }
}

/// `make` and `just` must expose the same entry points: a target present in
/// one build gate but not the other silently forks the two workflows. On
/// top of name parity, every `*-check` gate must be reachable from `check`
/// in both files — a verification target that exists but is not wired into
/// the aggregate gate silently stops running in CI.
pub struct TargetParity;

impl Rule for TargetParity {
    fn name(&self) -> &'static str {
        "target-parity"
    }

    fn summary(&self) -> &'static str {
        "make/just targets match one-to-one and every *-check gate is reachable from check"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let (Some(makefile), Some(justfile)) = (&ws.makefile, &ws.justfile) else {
            // With only one gate present there is nothing to keep in sync.
            return;
        };
        let make_targets = build_targets(makefile);
        let just_recipes = build_targets(justfile);
        for (name, line, text) in &make_targets {
            if !just_recipes.iter().any(|(n, _, _)| n == name) {
                out.push(parity_violation(
                    "Makefile",
                    *line,
                    text,
                    format!("make target `{name}` has no justfile recipe"),
                ));
            }
        }
        for (name, line, text) in &just_recipes {
            if !make_targets.iter().any(|(n, _, _)| n == name) {
                out.push(parity_violation(
                    "justfile",
                    *line,
                    text,
                    format!("justfile recipe `{name}` has no make target"),
                ));
            }
        }
        check_gate_reachability("Makefile", makefile, out);
        check_gate_reachability("justfile", justfile, out);
    }
}

/// Flags `*-check` targets that `check` does not (transitively) depend on.
/// Only applies when a `check` target exists — a file without an aggregate
/// gate has nothing to wire into.
fn check_gate_reachability(path: &str, text: &str, out: &mut Vec<Violation>) {
    let targets = build_targets(text);
    if !targets.iter().any(|(n, _, _)| n == "check") {
        return;
    }
    let deps = target_deps(text);
    // Transitive closure of `check` over the prerequisite lists.
    let mut reachable: Vec<&str> = vec!["check"];
    let mut frontier = vec!["check"];
    while let Some(t) = frontier.pop() {
        if let Some((_, ds)) = deps.iter().find(|(n, _)| n == t) {
            for d in ds {
                if !reachable.contains(&d.as_str()) {
                    reachable.push(d);
                    frontier.push(d);
                }
            }
        }
    }
    for (name, line, text) in &targets {
        if name.ends_with("-check") && !reachable.contains(&name.as_str()) {
            out.push(parity_violation(
                path,
                *line,
                text,
                format!("verification target `{name}` is not reachable from `check`; add it to check's prerequisites (or a target check already runs)"),
            ));
        }
    }
}

/// Prerequisite lists: for each target line, the words after the colon
/// (trailing `#` comments stripped). Both Makefile prerequisites and
/// justfile dependencies use this shape.
fn target_deps(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for (name, line, raw) in build_targets(text) {
        let _ = line;
        let Some(colon) = raw.find(':') else {
            continue;
        };
        let rest = &raw[colon + 1..];
        let rest = rest.split('#').next().unwrap_or("");
        let deps: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
        out.push((name, deps));
    }
    out
}

fn parity_violation(path: &str, line: usize, snippet: &str, message: String) -> Violation {
    Violation {
        rule: "target-parity",
        path: path.to_string(),
        line,
        col: 1,
        message,
        snippet: snippet.trim().to_string(),
    }
}

/// Extracts target/recipe names from a Makefile or justfile: non-indented
/// lines of the form `name[ args]: …`. Assignments, settings (`set x :=`),
/// special targets (`.PHONY`), comments, and recipe bodies (indented) are
/// skipped. The grammar overlap between the two formats is exactly what the
/// parity rule needs — a name that parses here should exist in both files.
fn build_targets(text: &str) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(first) = line.chars().next() else {
            continue;
        };
        if first.is_whitespace() || first == '#' || first == '.' {
            continue;
        }
        let Some(colon) = line.find(':') else {
            continue;
        };
        // The first word names the recipe; justfile recipes may take
        // parameters, with defaults (`bench-diff old new="HEAD":`).
        let end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
            .unwrap_or(line.len());
        let (name, after) = line.split_at(end);
        let word_ends = after.starts_with(|c: char| c.is_whitespace() || c == ':');
        // `NAME = v`, `:=`, `?=`, `+=` and `!=` assign, whatever the value
        // holds; a `:=` later in the line is a setting (`set shell :=`).
        let rest = after.trim_start();
        let assigns = ["=", ":=", "?=", "+=", "!="]
            .iter()
            .any(|op| rest.starts_with(op));
        if name.is_empty() || !word_ends || assigns || line[colon..].starts_with(":=") {
            continue;
        }
        out.push((name.to_string(), idx + 1, line.to_string()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_extraction() {
        let makefile = "CARGO := cargo\n.PHONY: check\ncheck: build test\n\tcargo test\nbuild:\n\tcargo build\n# comment\n";
        let names: Vec<String> = build_targets(makefile)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, ["check", "build"]);

        // Each assignment form, with a value that holds a colon, and a
        // recipe whose parameters have defaults.
        let assignments = "A = x:y\nB:=x:y\nC ?= x:y\nD += x:y\nE != date +%H:%M\nF=x:y\n\
                           pairs parent pairs=\"10\" seconds=\"30\":\n    true\n";
        let names: Vec<String> = build_targets(assignments)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, ["pairs"]);
    }

    #[test]
    fn justfile_recipes_with_args() {
        let justfile = "set shell := [\"bash\", \"-c\"]\ndefault: check\nbench-diff old new:\n    cargo run\n";
        let names: Vec<String> = build_targets(justfile)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, ["default", "bench-diff"]);
    }

    #[test]
    fn parity_flags_both_directions() {
        let ws = Workspace {
            makefile: Some("only-make:\n\ttrue\nshared:\n\ttrue\n".to_string()),
            justfile: Some("only-just:\n    true\nshared:\n    true\n".to_string()),
            ..Workspace::default()
        };
        let mut out = Vec::new();
        TargetParity.check_workspace(&ws, &mut out);
        let mut msgs: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        msgs.sort_unstable();
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].contains("only-just"));
        assert!(msgs[1].contains("only-make"));
    }

    #[test]
    fn unwired_check_target_is_flagged() {
        // `stray-check` exists but `check` never (transitively) runs it.
        let gate = "check: build deep\n\ttrue\nbuild:\n\ttrue\ndeep: serve-check\n\ttrue\nserve-check:\n\ttrue\nstray-check:\n\ttrue\n";
        let mut out = Vec::new();
        check_gate_reachability("Makefile", gate, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`stray-check`"));

        // Wiring it in (even transitively) clears the finding.
        let wired = gate.replace("check: build deep", "check: build deep stray-check");
        let mut out = Vec::new();
        check_gate_reachability("Makefile", &wired, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn no_check_target_means_no_reachability_gate() {
        let mut out = Vec::new();
        check_gate_reachability("justfile", "serve-check:\n    true\n", &mut out);
        assert!(out.is_empty());
    }
}
