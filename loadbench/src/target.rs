//! The system under test for one epoch: an in-process [`Server`] or a
//! loopback [`NetServer`] with one [`NetClient`], built the way a deployment
//! builds it, preloaded, driven one window at a time, and checked.

use crate::gen::{Op, Plan, Shape, Window, Workload};
use fol_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use fol_serve::{
    DurabilityConfig, Priority, Request, Response, Server, ServerConfig, StatsSnapshot,
    WorkloadClass,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The server configuration every workload runs: one worker (so each batch
/// lands on the one machine the traced replay rebuilds), the best backend
/// this CPU supports, the default recovery ladder, `max_batch` 256.
pub fn server_config(w: Workload, durable_dir: Option<&Path>) -> ServerConfig {
    let Shape {
        chain_capacity,
        oa_slots,
        bst_capacity,
        ..
    } = w.shape();
    ServerConfig {
        workers: 1,
        chain_capacity,
        oa_slots,
        bst_capacity,
        backend: fol_simd::best_available(),
        durability: durable_dir.map(DurabilityConfig::new),
        ..ServerConfig::default()
    }
}

/// One measured window as the caller saw it.
pub struct WindowRun {
    /// When the submit call started.
    pub start: Instant,
    /// When the submit call returned (in-process), or `start` over the wire,
    /// where submission and waiting are one call.
    pub admitted: Instant,
    /// When the caller observed each request's outcome.
    pub done: Vec<Instant>,
    /// Each request's outcome, rendered on failure.
    pub outcomes: Vec<Result<Response, String>>,
}

impl WindowRun {
    /// When the caller observed the window's last outcome.
    pub fn end(&self) -> Instant {
        *self.done.iter().max().expect("a window holds requests")
    }
}

/// Where the epoch's requests go.
#[allow(clippy::large_enum_variant)] // at most two live at a time
pub enum Target {
    /// `Server::submit_many_with`, in this process.
    Local(Server),
    /// `NetClient::call_many` over loopback TCP.
    Net {
        /// The front-end (owns the server).
        server: NetServer,
        /// The one closed-loop connection.
        client: NetClient,
    },
}

impl Target {
    /// Starts the server for `w` and preloads `plan.preload`; with
    /// `over_net`, then puts it behind a loopback front-end and connects one
    /// client. Everything here is set-up time.
    pub fn start(
        w: Workload,
        plan: &Plan,
        durable_dir: Option<&Path>,
        over_net: bool,
    ) -> Result<Target, String> {
        if let Some(dir) = durable_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let (server, _) = Server::try_start(server_config(w, durable_dir))
            .map_err(|e| format!("server start: {e}"))?;
        let mut target = Target::Local(server);
        for chunk in plan.preload.chunks(crate::gen::WINDOW) {
            let run = target.run(chunk);
            if let Some(Err(e)) = run.outcomes.iter().find(|o| o.is_err()) {
                return Err(format!("preload: {e}"));
            }
        }
        if over_net {
            let Target::Local(server) = target else {
                unreachable!("built in-process above")
            };
            let server = NetServer::start(server, NetServerConfig::default())
                .map_err(|e| format!("net server start: {e}"))?;
            let mut client =
                NetClient::new(server.local_addr().to_string(), NetClientConfig::default());
            // Connect now, so the first measured window does not pay for it.
            client.health().map_err(|e| format!("connect: {e}"))?;
            target = Target::Net { server, client };
        }
        Ok(target)
    }

    /// Drives one window (or the preload) and waits for every outcome.
    pub fn run(&mut self, requests: &[Request]) -> WindowRun {
        match self {
            Target::Local(server) => {
                let items: Vec<(Request, Priority, Option<std::time::Duration>)> = requests
                    .iter()
                    .map(|r| (r.clone(), Priority::Normal, None))
                    .collect();
                let start = Instant::now();
                let admissions = server.submit_many_with(items);
                let admitted = Instant::now();
                let mut done = Vec::with_capacity(admissions.len());
                let mut outcomes = Vec::with_capacity(admissions.len());
                for a in admissions {
                    let o = a.and_then(|t| t.wait()).map_err(|e| e.to_string());
                    done.push(Instant::now());
                    outcomes.push(o);
                }
                WindowRun {
                    start,
                    admitted,
                    done,
                    outcomes,
                }
            }
            Target::Net { client, .. } => {
                let start = Instant::now();
                let results = client.call_many(requests);
                let end = Instant::now();
                WindowRun {
                    start,
                    admitted: start,
                    done: vec![end; results.len()],
                    outcomes: results
                        .into_iter()
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect(),
                }
            }
        }
    }

    /// The server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        match self {
            Target::Local(server) => server.stats(),
            Target::Net { server, .. } => server.stats(),
        }
    }

    /// `Request::Digest` for `class`: `(digest, count)`.
    pub fn digest(&mut self, class: WorkloadClass) -> Result<(u64, u64), String> {
        match self {
            Target::Local(server) => match server.call(Request::Digest { class }) {
                Ok(Response::ClassDigest { digest, count }) => Ok((digest, count)),
                Ok(other) => Err(format!("digest answered with {other:?}")),
                Err(e) => Err(e.to_string()),
            },
            Target::Net { client, .. } => client.digest(class).map_err(|e| e.to_string()),
        }
    }

    /// Drains and stops everything this target started.
    pub fn stop(self) {
        match self {
            Target::Local(server) => {
                server.shutdown();
            }
            Target::Net { server, client } => {
                // Hang up first, so the connection thread sees EOF at once.
                drop(client);
                server.shutdown();
            }
        }
    }
}

/// Counts the outcomes of `run` that do not match what `window` expects.
pub fn wrong_answers(window: &Window, run: &WindowRun) -> Vec<String> {
    let mut wrong = Vec::new();
    for (i, o) in run.outcomes.iter().enumerate() {
        let ok = match (window.op, o) {
            (Op::ChainInsert, Ok(Response::ChainInserted { rounds })) => *rounds >= 1,
            (Op::BstInsert, Ok(Response::BstInserted { .. })) => true,
            (Op::OaInsert, Ok(Response::OaInserted { .. })) => true,
            (Op::OaLookup, Ok(Response::OaLookedUp { found })) => *found == window.expect_found[i],
            _ => false,
        };
        if !ok {
            wrong.push(format!("request {i} ({:?}): {o:?}", window.op));
        }
    }
    wrong
}

/// The FOL round count the window's (shared) chain transaction reported.
pub fn chain_rounds(run: &WindowRun) -> Option<usize> {
    run.outcomes.iter().find_map(|o| match o {
        Ok(Response::ChainInserted { rounds }) => Some(*rounds),
        _ => None,
    })
}

/// A scratch directory that is removed when dropped, so a run leaves nothing
/// behind even when it fails.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// A fresh directory for this process under the benchmark's `work/`.
    pub fn for_this_run() -> ScratchDir {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove `work/` too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
