//! Vetted `epoll(7)`/`eventfd(2)` FFI shim (Linux only).
//!
//! The crate stays std-only, so readiness notification is a thin
//! `extern "C"` layer over four syscalls — the same pattern as the
//! `mmap(2)` shim in `xclean-index` and the `signal(2)` shim in
//! [`crate::shutdown`]: one `#[allow(unsafe_code)]` module whose public
//! surface ([`Epoll`], [`WakeFd`]) is entirely safe. Everything above
//! this module (the event loop, the connection state machines) remains
//! under `#![deny(unsafe_code)]`.
//!
//! The loop uses epoll in **level-triggered** mode: a socket keeps
//! reporting readiness while unconsumed bytes (or writable buffer
//! space) remain, so the state machine may stop reading early — e.g. at
//! its pipeline cap — without ever losing a wakeup. [`WakeFd`] wraps an
//! `eventfd` registered alongside the sockets; worker threads bump it
//! to break the loop out of `epoll_wait` when a scored response is
//! ready to flush.
//!
//! This module is `pub`: the `loadgen` harness
//! (`crates/server/examples/loadgen.rs`) drives thousands of client
//! sockets with the same wrapper rather than duplicating the shim.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::unix::io::RawFd;

const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// Readiness bit: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// Readiness bit: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// Readiness bit: error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Readiness bit: hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Readiness bit: peer closed its writing end (request it explicitly).
pub const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0x80000;
const EFD_NONBLOCK: c_int = 0x800;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it (no padding
/// between `events` and `data`); other Linux architectures use natural
/// alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the fd.
    pub data: u64,
}

/// `struct epoll_event` (naturally aligned variant).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the fd.
    pub data: u64,
}

impl EpollEvent {
    /// The readiness bits, copied out of the (possibly packed) struct.
    pub fn events(&self) -> u32 {
        let e = *self;
        e.events
    }

    /// The registration token, copied out of the (possibly packed)
    /// struct.
    pub fn token(&self) -> u64 {
        let e = *self;
        e.data
    }
}

extern "C" {
    /// `epoll_create1(2)`; libc is always linked on Linux targets.
    fn epoll_create1(flags: c_int) -> c_int;
    /// `epoll_ctl(2)`.
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    /// `epoll_wait(2)`.
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    /// `eventfd(2)`.
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    /// `read(2)` — used only to drain the eventfd counter.
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    /// `write(2)` — used only to bump the eventfd counter.
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    /// `close(2)`.
    fn close(fd: c_int) -> c_int;
}

/// A safe owner of one epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates an epoll instance (`CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly-laid-out epoll_event for the
        // duration of the call; the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events` (level-triggered) under `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest of `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest list (dropping the fd does this
    /// implicitly; explicit removal keeps the list tight).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event even for DEL; a
        // zeroed one is compatible everywhere.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) and fills `events` with
    /// ready registrations, returning how many are valid. `Interrupted`
    /// (EINTR — e.g. SIGINT during drain) is reported as zero events so
    /// callers fall through to their shutdown checks.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` points at `events.len()` writable epoll_event
        // slots for the duration of the call.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(c_int::MAX as usize) as c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this struct and closed exactly once.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking `eventfd` used to wake `epoll_wait` from other threads
/// (workers finishing scored responses, shutdown).
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates the eventfd (`CLOEXEC | NONBLOCK`).
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// The fd to register with [`Epoll::add`] (EPOLLIN).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the loop: adds 1 to the eventfd counter. Saturation
    /// (EAGAIN) is fine — the loop is already guaranteed a wakeup.
    pub fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live u64, as eventfd
        // requires.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads exactly 8 bytes into a live buffer; NONBLOCK
        // makes this return EAGAIN rather than hang when already empty.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this struct and closed exactly once.
        unsafe { close(self.fd) };
    }
}

// SAFETY: both types are plain fd owners; every operation is a syscall
// the kernel serialises internally (epoll_ctl/epoll_wait and
// eventfd read/write are thread-safe by contract).
unsafe impl Send for Epoll {}
unsafe impl Sync for Epoll {}
unsafe impl Send for WakeFd {}
unsafe impl Sync for WakeFd {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_listener_readability() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending yet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);
    }

    #[test]
    fn epoll_modify_switches_interest() {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        // Write-interest on an idle socket: immediately ready.
        epoll.add(server_side.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events() & EPOLLOUT, 0);

        // Switch to read-interest: quiet until the client sends.
        epoll.modify(server_side.as_raw_fd(), EPOLLIN, 2).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        (&client).write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);

        epoll.del(server_side.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "deregistered");
    }

    #[test]
    fn wakefd_crosses_threads_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        epoll.add(wake.raw_fd(), EPOLLIN, 99).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let remote = std::sync::Arc::clone(&wake);
        std::thread::spawn(move || remote.notify()).join().unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 99);

        // Level-triggered: still ready until drained.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }
}
