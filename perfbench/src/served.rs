//! The in-process server and the one client connection the served
//! workloads drive it through.

use transmark::serve::client::Client;
use transmark::serve::{ServeConfig, Server};

use crate::measure::{allowed_cpus, pin_thread};
use crate::proxy::{Relay, WireCounts};
use crate::tracing::{span, CLIENT_CONNECT};

const TENANT: &str = "perfbench";

pub struct Served {
    server: Option<Server>,
    client: Option<Client>,
}

impl Served {
    /// Starts a server with one worker and connects one client (HELLO
    /// included).
    pub fn start() -> Result<Served, String> {
        let server = Server::start(ServeConfig {
            threads: 1,
            queue_cap: 4,
            tenant_quota: 1,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        let mut served = Served {
            server: Some(server),
            client: None,
        };
        served.connect()?;
        Ok(served)
    }

    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("client is connected")
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server is up")
    }

    /// Replaces the connection with a fresh one. The server's single
    /// worker serves one connection until it closes, so the old one is
    /// closed first.
    pub fn connect(&mut self) -> Result<(), String> {
        self.client = None;
        let addr = self.server().local_addr().to_string();
        let _s = span(CLIENT_CONNECT);
        self.client = Some(Client::connect(&addr, TENANT).map_err(|e| format!("connect: {e}"))?);
        Ok(())
    }

    /// Reconnects through a counting relay.
    pub fn begin_relay(&mut self) -> Result<Relay, String> {
        self.client = None;
        let relay = Relay::start(self.server().local_addr()).map_err(|e| format!("relay: {e}"))?;
        self.client =
            Some(Client::connect(&relay.addr(), TENANT).map_err(|e| format!("connect: {e}"))?);
        Ok(relay)
    }

    /// Closes the relayed connection, reads its totals, and reconnects
    /// directly.
    pub fn end_relay(&mut self, relay: Relay) -> Result<WireCounts, String> {
        self.client = None;
        let wire = relay.finish().map_err(|e| format!("relay: {e}"))?;
        self.connect()?;
        Ok(wire)
    }

    pub fn shutdown(&mut self) {
        self.client = None;
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU the process may use; returns that CPU.
///
/// A served op is a ping-pong between the client and the server worker.
/// On two CPUs each hand-off wakes the other, idle vCPU, and on a shared
/// host that wake-up sometimes takes a millisecond: whole runs then read
/// p99 three to six times higher. On one CPU the hand-off is a local
/// context switch.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()?.last().expect("allowed_cpus is never empty");
    pin_thread(cpu)?;
    Ok(cpu)
}
