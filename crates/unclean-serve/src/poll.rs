//! A minimal readiness-polling wrapper and SO_REUSEPORT listener
//! factory — the few dozen lines of an event library the keep-alive
//! serve loop actually needs, bound directly against the platform libc
//! the process already links (the workspace is offline/vendored; no
//! `libc` crate, no async runtime).
//!
//! * On Linux, [`Poller`] is an `epoll(7)` instance (level-triggered; at
//!   the daemon's connection counts the edge/level distinction buys
//!   nothing and level is far harder to misuse).
//! * On other unix, the same API is backed by `poll(2)` over a
//!   maintained fd array.
//! * On non-unix platforms there is no [`Poller`]; the server falls back
//!   to a blocking per-shard accept loop (see `server.rs`).
//!
//! [`shard_listeners`] produces one listening socket per shard: on
//! Linux, N independent SO_REUSEPORT sockets bound to the same address,
//! so the kernel load-balances accepts and the shards never contend on
//! one accept queue; elsewhere, clones of a single listener (accepts
//! then serialize in the kernel, which is still correct — just not
//! zero-contention). Either way the address is claimed first with one
//! plain bind, so a daemon never joins a port another daemon serves.

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpListener};

/// One readiness event out of [`Poller::wait`].
#[cfg(unix)]
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer-closed / errored — reads will resolve it).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! epoll(7) backend.
    use super::Event;
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    const EPOLL_CLOEXEC: c_int = 0x8_0000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// `struct epoll_event`; packed on x86-64 (only there — the kernel
    /// ABI quirk), natural layout on other architectures.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// A level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall; the result is checked.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(
            &mut self,
            op: c_int,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: if read { EPOLLIN } else { 0 } | if write { EPOLLOUT } else { 0 },
                data: token,
            };
            // SAFETY: `ev` outlives the call; fd validity is the caller's
            // contract and errors surface as EBADF.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            // SAFETY: the buffer pointer/capacity pair is valid for the
            // call; the kernel writes at most `len` entries and the
            // return value bounds how many we read back.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, data) = (ev.events, ev.data);
                events.push(Event {
                    token: data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing the fd this type owns.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! poll(2) backend for non-Linux unix.
    use super::Event;
    use std::io;
    use std::os::raw::{c_int, c_short, c_uint};
    use std::os::unix::io::RawFd;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    }

    /// A maintained pollfd array with parallel tokens.
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn events_bits(read: bool, write: bool) -> c_short {
            (if read { POLLIN } else { 0 }) | (if write { POLLOUT } else { 0 })
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.fds.push(PollFd {
                fd,
                events: Self::events_bits(read, write),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            for (slot, t) in self.fds.iter_mut().zip(&mut self.tokens) {
                if slot.fd == fd {
                    slot.events = Self::events_bits(read, write);
                    *t = token;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            if let Some(i) = self.fds.iter().position(|s| s.fd == fd) {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
            }
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            if self.fds.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
                return Ok(());
            }
            // SAFETY: the fd array is valid for the call and nfds matches
            // its length.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_uint, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (slot, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = slot.revents;
                if bits != 0 {
                    events.push(Event {
                        token,
                        readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                        writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(unix)]
pub use sys::Poller;

/// Build one listening socket per shard for `addr`.
///
/// One plain bind claims the address first: it resolves names like
/// "localhost:7000" and port 0, and it fails with `AddrInUse` while any
/// socket listens there — a SO_REUSEPORT bind would instead join another
/// daemon's shard group and split its connections. Linux (IPv4) then
/// closes it and binds N independent SO_REUSEPORT sockets to the resolved
/// address, so each shard owns a private accept queue. Elsewhere (or on
/// IPv6, where this toy binder doesn't reach) the shards clone it.
pub fn shard_listeners(addr: &str, shards: usize) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    let first = TcpListener::bind(addr)?;
    let resolved = first.local_addr()?;
    #[cfg(target_os = "linux")]
    if let SocketAddr::V4(v4) = resolved {
        drop(first);
        let listeners = (0..shards.max(1)).map(|_| reuseport::bind(v4));
        return Ok((listeners.collect::<io::Result<_>>()?, resolved));
    }
    let mut listeners = vec![first];
    for _ in 1..shards.max(1) {
        listeners.push(listeners[0].try_clone()?);
    }
    Ok((listeners, resolved))
}

#[cfg(target_os = "linux")]
mod reuseport {
    //! Raw IPv4 SO_REUSEPORT socket construction.
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::FromRawFd;

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0x8_0000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const BACKLOG: c_int = 1024;

    #[repr(C)]
    pub struct SockaddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    mod c {
        use super::SockaddrIn;
        use std::os::raw::{c_int, c_void};

        extern "C" {
            pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
            pub fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
            pub fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
            pub fn listen(fd: c_int, backlog: c_int) -> c_int;
            pub fn close(fd: c_int) -> c_int;
        }
    }

    fn check(fd: c_int, ret: c_int) -> io::Result<()> {
        if ret < 0 {
            let e = io::Error::last_os_error();
            // SAFETY: fd came from socket() below and is still ours.
            unsafe {
                c::close(fd);
            }
            return Err(e);
        }
        Ok(())
    }

    pub fn bind(addr: SocketAddrV4) -> io::Result<TcpListener> {
        // SAFETY: each call is a plain syscall on a fd this function
        // owns; every return value is checked and the fd is closed on
        // any failure path.
        unsafe {
            let fd = c::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let one: c_int = 1;
            let one_ptr = &one as *const c_int as *const c_void;
            let one_len = std::mem::size_of::<c_int>() as u32;
            check(
                fd,
                c::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, one_ptr, one_len),
            )?;
            check(
                fd,
                c::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, one_ptr, one_len),
            )?;
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
                sin_zero: [0; 8],
            };
            check(
                fd,
                c::bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32),
            )?;
            check(fd, c::listen(fd, BACKLOG))?;
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[cfg(unix)]
    #[test]
    fn poller_reports_listener_and_stream_readiness() {
        use std::io::{Read, Write};
        use std::os::unix::io::AsRawFd;
        let (listeners, addr) = shard_listeners("127.0.0.1:0", 1).expect("bind");
        let listener = &listeners[0];
        listener.set_nonblocking(true).expect("nonblocking");
        let mut poller = Poller::new().expect("poller");
        poller
            .register(listener.as_raw_fd(), 7, true, false)
            .expect("register");

        let mut events = Vec::new();
        poller.wait(&mut events, 0).expect("wait");
        assert!(events.is_empty(), "nothing pending yet");

        let mut client = TcpStream::connect(addr).expect("connect");
        poller.wait(&mut events, 2000).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener readable after connect: {events:?}"
        );

        let (mut server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        poller
            .register(server_side.as_raw_fd(), 9, true, true)
            .expect("register conn");
        client.write_all(b"ping").expect("write");
        // Wait until the data is visible to the server socket.
        let mut saw_readable = false;
        for _ in 0..50 {
            poller.wait(&mut events, 100).expect("wait");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                saw_readable = true;
                break;
            }
        }
        assert!(saw_readable, "conn readable after client write");
        let mut buf = [0u8; 8];
        let n = server_side.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Narrow interest to write-only: the poller must report writable.
        poller
            .modify(server_side.as_raw_fd(), 9, false, true)
            .expect("modify");
        poller.wait(&mut events, 2000).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "idle conn is writable: {events:?}"
        );
        poller.deregister(server_side.as_raw_fd()).expect("dereg");
    }

    #[test]
    fn reuseport_shards_share_one_port() {
        let (listeners, addr) = shard_listeners("127.0.0.1:0", 4).expect("bind");
        assert_eq!(listeners.len(), 4);
        for l in &listeners {
            assert_eq!(l.local_addr().expect("addr").port(), addr.port());
        }
        // A client connecting reaches exactly one of the shards.
        let client = TcpStream::connect(addr).expect("connect");
        let mut accepted = None;
        for l in &listeners {
            l.set_nonblocking(true).expect("nonblocking");
            if let Ok((s, _)) = l.accept() {
                accepted = Some(s);
                break;
            }
        }
        assert!(accepted.is_some(), "one shard accepted the connection");
        drop(client);
    }

    #[test]
    fn a_port_a_live_shard_group_holds_is_refused() {
        let (held, addr) = shard_listeners("127.0.0.1:0", 2).expect("bind");
        for shards in [1, 2] {
            let err = shard_listeners(&addr.to_string(), shards).expect_err("port is taken");
            assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        }
        drop(held);
        // Once the group is gone the port is free again.
        shard_listeners(&addr.to_string(), 2).expect("port released");
    }
}
