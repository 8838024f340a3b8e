//! Call-graph panic reachability: no `unwrap`/`expect`/`panic!`/dynamic
//! index may be transitively reachable from the daemon's connection
//! handlers, the store's batch entry point, or the mission executor —
//! the paths where a panic is a dropped connection, a dead daemon, or a
//! lost UAV rather than a stack trace on a developer box.

use crate::callgraph::{CallGraph, SiteKind};
use crate::report::Violation;
use crate::rules::{Rule, PANIC_FREE_CRATES};
use crate::workspace::Workspace;

/// The reachability roots, as (crate, function-name) pairs. Every function
/// with a matching name in the crate seeds the search — `answer` exists on
/// both the daemon and the store, and both are on the serve path.
pub const REACH_ROOTS: [(&str, &str); 8] = [
    ("serve", "serve_connection"),
    ("serve", "process_frames"),
    ("serve", "flush_requests"),
    ("serve", "handle_control"),
    ("serve", "answer"),
    ("serve", "submit_batch"),
    ("mission", "fly_leg"),
    ("mission", "fly_leg_with_receiver"),
];

/// Crates whose dynamic-index sites participate in reachability findings.
/// The numerics kernels index heavily against locally-proven bounds
/// (shapes validated at construction); auditing each of those sits with
/// the kernel code, not with every caller above it — see docs/LINT.md.
pub const DYN_INDEX_CRATES: [&str; 2] = ["serve", "mission"];

/// Panic sites transitively reachable from the serve/mission roots.
pub struct PanicReach;

impl Rule for PanicReach {
    fn name(&self) -> &'static str {
        "panic-reach"
    }

    fn summary(&self) -> &'static str {
        "no panic site may be reachable from daemon handlers, submit_batch, or fly_leg"
    }

    fn check_workspace(&self, ws: &Workspace, out: &mut Vec<Violation>) {
        let graph = CallGraph::build(ws);
        let mut roots: Vec<usize> = Vec::new();
        for (cr, name) in REACH_ROOTS {
            roots.extend(graph.find(cr, name));
        }
        if roots.is_empty() {
            return;
        }
        let parent = graph.reach_from(&roots);
        for (id, node) in graph.fns.iter().enumerate() {
            if parent[id].is_none() || node.sites.is_empty() {
                continue;
            }
            // The panic-free crates are already policed site-by-site by the
            // per-file `panic-path` / `slice-index` rules; re-reporting each
            // of their sites here would double every finding.
            if PANIC_FREE_CRATES.contains(&node.crate_name.as_str()) {
                continue;
            }
            let chain = graph.path_to(&parent, id);
            let root_name = chain.first().cloned().unwrap_or_default();
            let via = if chain.len() > 1 {
                format!(" (path: {})", chain.join(" → "))
            } else {
                String::new()
            };
            let file = &ws.files[node.file];
            for site in &node.sites {
                if site.kind == SiteKind::DynIndex
                    && !DYN_INDEX_CRATES.contains(&node.crate_name.as_str())
                {
                    continue;
                }
                let (line, col) = file.source.line_col(site.token.start);
                out.push(Violation {
                    rule: self.name(),
                    path: file.source.path.clone(),
                    line,
                    col,
                    message: format!(
                        "`{}` in `{}` is reachable from root `{}`{}; return a typed error, or justify with `lint:allow(panic-reach) — <why unreachable>`",
                        site.kind.label(),
                        node.qualified(),
                        root_name,
                        via
                    ),
                    snippet: file.source.line_text(line).trim().to_string(),
                });
            }
        }
    }
}
