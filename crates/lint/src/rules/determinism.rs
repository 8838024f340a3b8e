//! Determinism hazards: anything that can make two runs of the same seeded
//! pipeline differ — hash-order iteration, wall-clock reads, ambient
//! entropy, and unordered parallel float reductions.

use crate::lexer::TokenKind;
use crate::report::Violation;
use crate::rules::{FileCtx, Rule};

/// `HashMap` / `HashSet` in shipped code. Iteration order is randomized
/// per-process, so any walk over one of these that feeds a `Vec`, an
/// output file, a sum of floats, or RNG draws silently breaks the
/// serial≡parallel and run-to-run bit-identity contracts. `BTreeMap` /
/// `BTreeSet` (or explicit sorted iteration) are drop-in deterministic
/// replacements at workspace scale.
pub struct HashIter;

impl Rule for HashIter {
    fn name(&self) -> &'static str {
        "hash-iter"
    }

    fn summary(&self) -> &'static str {
        "HashMap/HashSet in shipped code: iteration order is nondeterministic"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if !ctx.determinism_scope() {
            return;
        }
        for (i, tok) in ctx.code.iter().enumerate() {
            if tok.kind != TokenKind::Ident || ctx.in_test(*tok) {
                continue;
            }
            let name = ctx.text(i);
            if name == "HashMap" || name == "HashSet" {
                let ordered = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
                out.push(ctx.violation(
                    self.name(),
                    *tok,
                    format!("`{name}` has nondeterministic iteration order; use `{ordered}` or sorted iteration"),
                ));
            }
        }
    }
}

/// Wall-clock reads (`Instant::now`, `SystemTime::now`, `UNIX_EPOCH`) in
/// shipped code. Simulation time is `SimTime`; real time in a data path
/// makes outputs depend on the host and the scheduler.
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn summary(&self) -> &'static str {
        "Instant/SystemTime reads in shipped code: results must not depend on host time"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if !ctx.determinism_scope() {
            return;
        }
        for (i, tok) in ctx.code.iter().enumerate() {
            if tok.kind != TokenKind::Ident || ctx.in_test(*tok) {
                continue;
            }
            let name = ctx.text(i);
            let hit = match name {
                "Instant" | "SystemTime" => {
                    // Only the `::now` read is banned; mentioning the type
                    // (e.g. a stored `Instant` handed in by instrumentation)
                    // is not itself a hazard.
                    ctx.is_punct(i + 1, ":")
                        && ctx.is_punct(i + 2, ":")
                        && ctx.is_ident(i + 3, "now")
                }
                "UNIX_EPOCH" => true,
                _ => false,
            };
            if hit {
                out.push(ctx.violation(
                    self.name(),
                    *tok,
                    format!("wall-clock read via `{name}`; simulation results must be time-independent (use SimTime, or confine timing to instrumentation)"),
                ));
            }
        }
    }
}

/// Ambient entropy: `thread_rng`, `OsRng`, `from_entropy`, `getrandom`,
/// `rand::random`. Every random draw in the toolchain flows from an
/// explicit seed; an entropy source anywhere in shipped code breaks
/// checkpoint/resume and campaign reproducibility.
pub struct Entropy;

impl Rule for Entropy {
    fn name(&self) -> &'static str {
        "entropy"
    }

    fn summary(&self) -> &'static str {
        "ambient entropy sources: all randomness must flow from explicit seeds"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if !ctx.determinism_scope() {
            return;
        }
        for (i, tok) in ctx.code.iter().enumerate() {
            if tok.kind != TokenKind::Ident || ctx.in_test(*tok) {
                continue;
            }
            let name = ctx.text(i);
            let hit = matches!(name, "thread_rng" | "OsRng" | "from_entropy" | "getrandom")
                || (name == "random"
                    && i >= 3
                    && ctx.is_ident(i - 3, "rand")
                    && ctx.is_punct(i - 2, ":")
                    && ctx.is_punct(i - 1, ":"));
            if hit {
                out.push(ctx.violation(
                    self.name(),
                    *tok,
                    format!("`{name}` draws ambient entropy; thread a seeded RNG (rand::rngs::StdRng::seed_from_u64) instead"),
                ));
            }
        }
    }
}

/// Float reductions inside a parallel pipeline. `.sum()` / `.reduce()` /
/// `.fold()` over floats combine in whatever order the scheduler hands out
/// work, so two runs can differ in the last bits. The workspace's contract
/// is order-preserving `map → collect` (see `numerics::exec::map_vec_with`)
/// with a serial, blocked reduction afterwards.
///
/// Besides raw rayon adapters this also watches the chunked executor entry
/// points (`exec::map_chunks` and friends): a reduction written inside one
/// of their closures runs on worker threads, so it must be justified with a
/// `lint:allow` stating why its combine order is fixed (per-chunk serial
/// sums over a policy-independent partition qualify; anything keyed on
/// worker identity or arrival order does not).
pub struct ParFloatReduce;

/// Method names that start a parallel pipeline: rayon adapters plus the
/// workspace's chunked executor entry points, whose closures run on worker
/// threads.
const PAR_SOURCES: [&str; 10] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_chunks_exact",
    "par_bridge",
    "map_chunks",
    "try_map_chunks",
    "map_vec_with",
    "try_map_vec_with",
];

/// Reducers that combine in nondeterministic order on a parallel iterator.
const REDUCERS: [&str; 4] = ["sum", "product", "reduce", "fold"];

impl Rule for ParFloatReduce {
    fn name(&self) -> &'static str {
        "par-float-reduce"
    }

    fn summary(&self) -> &'static str {
        "float reduction on a rayon iterator: combine order is nondeterministic"
    }

    fn check_file(&self, ctx: &FileCtx<'_>, out: &mut Vec<Violation>) {
        if !ctx.determinism_scope() {
            return;
        }
        for (i, tok) in ctx.code.iter().enumerate() {
            if tok.kind != TokenKind::Ident
                || ctx.in_test(*tok)
                || !PAR_SOURCES.contains(&ctx.text(i))
            {
                continue;
            }
            // Scan the rest of the statement: up to `;` at relative depth 0
            // or the enclosing block closing underneath us.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < ctx.code.len() && j < i + 512 {
                let t = ctx.text(j);
                match t {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {
                        if ctx.code[j].kind == TokenKind::Ident
                            && REDUCERS.contains(&t)
                            && ctx.is_punct(j.wrapping_sub(1), ".")
                        {
                            out.push(ctx.violation(
                                self.name(),
                                ctx.code[j],
                                format!(
                                    "`.{t}()` after `{}` combines partial results in scheduler order; reassemble in input order (map → collect) and reduce serially or in fixed blocks",
                                    ctx.text(i)
                                ),
                            ));
                        }
                    }
                }
                j += 1;
            }
        }
    }
}
