//! Stopping a server: [`Server::stop`], SIGTERM/SIGINT and
//! [`request_shutdown`] all take the same path.
//!
//! The acceptor blocks in `accept`, so a flag alone would never be seen.
//! A stop is therefore one atomic store followed by one `connect` to the
//! listener's own address. The connect makes the blocked `accept` return;
//! the acceptor sees the flag, drops that connection and begins the
//! drain. No server thread sleeps or polls while the server is idle.
//!
//! The container resolves no crates registry, so there is no `libc` or
//! `signal-hook` to lean on; registration goes straight through the C
//! runtime's `signal(2)` entry point. This is the one unsafe item in the
//! whole workspace. The handler stays async-signal-safe: it reads its
//! target from a `OnceLock` filled before the handler is installed, does
//! the atomic store, then `socket`, `connect` and `close`. Std's connect
//! to a ready-made `SocketAddr` neither allocates nor takes a lock.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use crate::Server;

/// One server's stop switch: the flag its acceptor checks each time
/// `accept` returns, and the address whose connect wakes that `accept`.
pub(crate) struct Stopper {
    requested: AtomicBool,
    wake: SocketAddr,
}

impl Stopper {
    /// The switch for a listener bound to `bound`. A wildcard bind
    /// (`0.0.0.0`, `[::]`) is woken through its family's loopback address.
    pub(crate) fn new(bound: SocketAddr) -> Stopper {
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Stopper {
            requested: AtomicBool::new(false),
            wake,
        }
    }

    /// Sets the flag, then wakes the acceptor. Async-signal-safe.
    pub(crate) fn stop(&self) {
        self.requested.store(true, Ordering::SeqCst);
        // The stream closes on drop. A refused connect means the
        // listener is already closed, so there is nothing to wake.
        let _ = TcpStream::connect(self.wake);
    }

    /// True once [`stop`](Stopper::stop) was called.
    pub(crate) fn stop_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// The switch the signal handler trips, set before the handler exists.
static TARGET: OnceLock<Arc<Stopper>> = OnceLock::new();

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    request_shutdown();
}

/// Makes SIGTERM and SIGINT stop `server` as [`Server::stop`] does.
/// Call it before [`Server::run`]. The first registered server stays the
/// target; later calls only re-install the handler.
#[allow(unsafe_code)]
pub fn install_shutdown_handler(server: &Server) {
    let _ = TARGET.set(Arc::clone(&server.stopper));
    extern "C" {
        /// `signal(2)` from the C runtime: `sighandler_t signal(int, sighandler_t)`.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` is the C standard library's handler registration.
    // The handler reads a `OnceLock` that is already set, stores one
    // atomic and makes one connect (`socket`, `connect`, `close`): all
    // async-signal-safe, with no allocation and no lock.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// True once the server registered with [`install_shutdown_handler`] was
/// asked to stop.
pub fn shutdown_requested() -> bool {
    TARGET.get().is_some_and(|stopper| stopper.stop_requested())
}

/// Stops the registered server exactly as a SIGTERM would: the tests'
/// stand-in for delivering a real signal. Does nothing before a server
/// is registered.
pub fn request_shutdown() {
    if let Some(stopper) = TARGET.get() {
        stopper.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn request_shutdown_wakes_and_stops_the_registered_server() {
        let server = Arc::new(Server::bind(ServerConfig::default()).expect("bind"));
        install_shutdown_handler(&server);
        assert!(!shutdown_requested());
        let (done_tx, done) = mpsc::channel();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || done_tx.send(server.run()).expect("the test waits"))
        };
        // Let the acceptor reach its blocking `accept` first.
        std::thread::sleep(Duration::from_millis(50));
        request_shutdown();
        assert!(shutdown_requested());
        done.recv_timeout(Duration::from_secs(5))
            .expect("the wake connect unblocks accept")
            .expect("run drains cleanly");
        runner.join().expect("runner exits");
    }

    #[test]
    fn wildcard_binds_are_woken_through_loopback() {
        let v4 = Stopper::new("0.0.0.0:7171".parse().unwrap());
        assert_eq!(v4.wake, "127.0.0.1:7171".parse().unwrap());
        let v6 = Stopper::new("[::]:7171".parse().unwrap());
        assert_eq!(v6.wake, "[::1]:7171".parse().unwrap());
        let exact = Stopper::new("127.0.0.2:7171".parse().unwrap());
        assert_eq!(exact.wake, "127.0.0.2:7171".parse().unwrap());
    }
}
