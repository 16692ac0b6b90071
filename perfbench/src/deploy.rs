//! In-process deployments on loopback, and the timed set-up of each.
//!
//! Servers and routers run with their shipped defaults
//! (`ServeConfig::default()`, `RouterConfig::default()`); only the shard
//! list a router needs is filled in, and the default bind address is an
//! ephemeral loopback port.

use crate::workload::{Inputs, SHARDS};
use chason_core::plan::matrix_fingerprint;
use chason_router::{Router, RouterConfig};
use chason_serve::client::Client;
use chason_serve::proto::StatsSnapshot;
use chason_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::Instant;

/// A running deployment: one server, or a router over shard servers.
pub struct Deployment {
    server: Option<Server>,
    router: Option<Router>,
    shards: Vec<Server>,
}

impl Deployment {
    /// Starts the deployment a workload runs against.
    ///
    /// # Errors
    ///
    /// Bind or spawn failures.
    pub fn start(routed: bool) -> std::io::Result<Deployment> {
        if !routed {
            return Ok(Deployment {
                server: Some(Server::start(ServeConfig::default())?),
                router: None,
                shards: Vec::new(),
            });
        }
        let shards = (0..SHARDS)
            .map(|_| Server::start(ServeConfig::default()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = Router::start(RouterConfig {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })?;
        Ok(Deployment {
            server: None,
            router: Some(router),
            shards,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        match (&self.server, &self.router) {
            (Some(server), _) => server.local_addr(),
            (None, Some(router)) => router.local_addr(),
            (None, None) => unreachable!("a deployment has a server or a router"),
        }
    }

    /// The shard servers' addresses (empty without a router).
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(Server::local_addr).collect()
    }

    /// Drains and joins every server and router thread.
    pub fn stop(self) {
        if let Some(router) = self.router {
            router.shutdown();
            router.join();
        }
        for server in self.server.into_iter().chain(self.shards) {
            server.shutdown();
            server.join();
        }
    }
}

/// Server counters read over CHSP at the end of a phase.
#[derive(Debug, Clone)]
pub struct Counters {
    /// The `Stats` snapshot of the endpoint clients used.
    pub stats: StatsSnapshot,
    /// Its `Metrics` exposition.
    pub metrics: String,
}

/// Reads the counters of the endpoint at `addr`.
///
/// # Errors
///
/// Any client failure, rendered.
pub fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let metrics = client.metrics().map_err(|e| e.to_string())?;
    Ok(Counters { stats, metrics })
}

/// A deployment ready for the timed phase.
pub struct Ready {
    /// The running deployment.
    pub deployment: Deployment,
    /// Matrix handles, per connection, in program order.
    pub handles: Vec<Vec<u64>>,
    /// Seconds spent in calls into the program.
    pub seconds: f64,
}

/// Starts a deployment, loads every connection's matrices and sends the
/// first request per engine (the one that builds its plan). The elapsed
/// time is the set-up time; the benchmark computes nothing of its own in
/// it.
///
/// # Errors
///
/// Any failure, rendered: set-up must succeed for a run to count.
pub fn set_up(inputs: &Inputs) -> Result<Ready, String> {
    let started = Instant::now();
    let deployment = Deployment::start(inputs.workload.routed()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(deployment.addr()).map_err(|e| e.to_string())?;
    let mut handles = Vec::with_capacity(inputs.programs.len());
    for program in &inputs.programs {
        let mut conn_handles = Vec::with_capacity(program.matrices.len());
        for matrix in &program.matrices {
            let (handle, _) = client
                .load_matrix(matrix)
                .map_err(|e| format!("LoadMatrix failed: {e}"))?;
            if handle != matrix_fingerprint(matrix) {
                return Err(format!(
                    "LoadMatrix returned handle {handle:#x}, not the fingerprint"
                ));
            }
            for &engine in &program.warm_engines {
                let x = vec![1.0f32; matrix.cols()];
                let (y, _, _) = client
                    .spmv(handle, engine, x)
                    .map_err(|e| format!("warm-up Spmv failed: {e}"))?;
                if y.len() != matrix.rows() {
                    return Err("warm-up Spmv returned the wrong length".to_string());
                }
            }
            conn_handles.push(handle);
        }
        handles.push(conn_handles);
    }
    drop(client);
    Ok(Ready {
        deployment,
        handles,
        seconds: started.elapsed().as_secs_f64(),
    })
}
