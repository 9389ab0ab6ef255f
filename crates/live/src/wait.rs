//! The event loop's only blocking point: one `ppoll(2)` over the
//! daemon's sockets, bounded by the next protocol deadline.
//!
//! `ppoll` is `poll` with a nanosecond timeout (POSIX.1-2024; Linux and
//! the BSDs). `poll`'s whole-millisecond timeout, rounded up so a wait
//! never ends before its deadline, made every timer fire up to a
//! millisecond late.
//!
//! A [`Waiter`] is refilled with the live sockets before every wait, so a
//! crashed router's closed sockets are never polled and a rebooted one's
//! fresh sockets are. A socket counts as ready when it is readable or in
//! error: `POLLERR` is how a connected socket reports the `ECONNREFUSED`
//! bounce from a crashed peer, which the receive path turns into bounded
//! retransmissions.

#![allow(unsafe_code)] // one libc call: ppoll(2)

use std::ffi::{c_int, c_long, c_short, c_void};
use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` (`time_t` is a `long` on these targets).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: Nfds,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// A reusable `poll` set whose entries carry a caller-chosen key.
pub(crate) struct Waiter<K> {
    fds: Vec<PollFd>,
    keys: Vec<K>,
}

impl<K: Copy> Waiter<K> {
    pub(crate) fn new() -> Self {
        Waiter {
            fds: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Forget every socket (keeps the capacity).
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
        self.keys.clear();
    }

    /// Watch `sock` for readability under `key`.
    pub(crate) fn push(&mut self, sock: &UdpSocket, key: K) {
        self.fds.push(PollFd {
            fd: sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        self.keys.push(key);
    }

    /// Block until a watched socket is readable or in error, or until
    /// `timeout` has passed. A signal ends the wait early with nothing
    /// ready.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            // Below 10^9, so it fits any `long`.
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        let nfds = Nfds::try_from(self.fds.len()).expect("one pollfd per socket fits nfds_t");
        // SAFETY: `fds` points to `nfds` initialized `struct pollfd`s that
        // this call borrows exclusively; the kernel writes only their
        // `revents`. `ts` is a valid timespec that outlives the call, and a
        // null sigmask leaves the signal mask alone, as `poll` does. An fd
        // that is no longer open is reported as `POLLNVAL`, not undefined
        // behaviour.
        let rc = unsafe { ppoll(self.fds.as_mut_ptr(), nfds, &ts, std::ptr::null()) };
        if rc >= 0 {
            return Ok(());
        }
        for pfd in &mut self.fds {
            pfd.revents = 0;
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            Ok(())
        } else {
            Err(err)
        }
    }

    /// Keys of the sockets the last [`Waiter::wait`] found readable or in
    /// error.
    pub(crate) fn ready(&self) -> impl Iterator<Item = K> + '_ {
        self.fds
            .iter()
            .zip(&self.keys)
            .filter(|(pfd, _)| pfd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0)
            .map(|(_, &key)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        (a, b)
    }

    #[test]
    fn a_quiet_set_waits_out_its_timeout() {
        let (a, b) = pair();
        let mut w = Waiter::new();
        w.push(&a, 0);
        w.push(&b, 1);
        let t0 = Instant::now();
        w.wait(Duration::from_millis(20)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(w.ready().count(), 0);
    }

    #[test]
    fn a_readable_socket_ends_the_wait_and_is_reported() {
        let (a, b) = pair();
        a.send(b"x").unwrap();
        let mut w = Waiter::new();
        w.push(&a, 'a');
        w.push(&b, 'b');
        let t0 = Instant::now();
        w.wait(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(w.ready().collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn a_refused_send_reports_the_socket_in_error() {
        let (a, b) = pair();
        drop(b);
        // The peer's port is closed: the send succeeds, the ICMP bounce
        // arrives asynchronously and marks `a` with ECONNREFUSED.
        a.send(b"x").unwrap();
        let mut w = Waiter::new();
        w.push(&a, ());
        w.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(w.ready().count(), 1);
        a.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(
            a.recv(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
    }
}
