//! The benchmark's HTTP client: one keep-alive connection with
//! Content-Length framing, usable blocking (closed loop) or nonblocking
//! (open loop, requests pipelined on their schedule), plus one-shot
//! requests for control endpoints.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response framed out of the connection buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    /// HTTP status code.
    pub status: u16,
    /// Bytes of status line and headers, including the blank line.
    pub head_len: usize,
    /// Body bytes (the Content-Length).
    pub body_len: usize,
}

/// Frame the response at the front of `buf`: `Ok(None)` until the head
/// and the whole declared body are buffered.
pub fn frame_response(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "response head is not utf-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut body_len = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                body_len = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    let head_len = end + 4;
    Ok((buf.len() >= head_len + body_len).then_some(Framed {
        status,
        head_len,
        body_len,
    }))
}

/// A keep-alive connection to a daemon.
pub struct Conn {
    stream: TcpStream,
    /// Receive buffer; `buf[start..end]` holds bytes not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Response bytes received so far.
    pub bytes_in: u64,
}

impl Conn {
    /// Connect with Nagle off (requests are small and latency-bound).
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
            .map_err(|e| format!("configure {addr}: {e}"))?;
        Ok(Conn {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
            bytes_in: 0,
        })
    }

    /// Switch between blocking and nonblocking I/O.
    pub fn set_nonblocking(&self, on: bool) -> Result<(), String> {
        self.stream
            .set_nonblocking(on)
            .map_err(|e| format!("set_nonblocking: {e}"))
    }

    /// Write a whole request (blocking mode).
    pub fn send(&mut self, request: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))
    }

    /// Write as much of `pending` as the socket takes without blocking
    /// and drop the written prefix.
    pub fn send_some(&mut self, pending: &mut Vec<u8>) -> Result<(), String> {
        while !pending.is_empty() {
            match self.stream.write(pending) {
                Ok(0) => return Err("connection closed while sending".into()),
                Ok(n) => {
                    pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// The next response: blocks until one is complete in blocking mode;
    /// in nonblocking mode returns `Ok(None)` when none is complete yet.
    /// The returned body borrows the connection buffer until the next call.
    pub fn recv(&mut self) -> Result<Option<(u16, &[u8])>, String> {
        loop {
            if let Some(f) = frame_response(&self.buf[self.start..self.end])? {
                let body = self.start + f.head_len;
                self.start = body + f.body_len;
                return Ok(Some((f.status, &self.buf[body..self.start])));
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err("connection closed by the daemon".into()),
                Ok(n) => {
                    self.end += n;
                    self.bytes_in += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// One blocking request/response exchange; returns status and body.
    pub fn exchange(&mut self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.send(request)?;
        match self.recv()? {
            Some((status, body)) => Ok((status, body.to_vec())),
            None => Err("no response".into()),
        }
    }
}

/// `GET /lookup?ip=A.B.C.D` on a keep-alive connection.
pub fn lookup_request(ip: u32) -> Vec<u8> {
    format!(
        "GET /lookup?ip={} HTTP/1.1\r\nHost: bench\r\n\r\n",
        std::net::Ipv4Addr::from(ip)
    )
    .into_bytes()
}

/// `POST /batch-bin`: a u32-BE count, then the addresses as u32-BE.
pub fn batch_bin_request(ips: &[u32]) -> Vec<u8> {
    let body_len = 4 + 4 * ips.len();
    let mut req =
        format!("POST /batch-bin HTTP/1.1\r\nHost: bench\r\nContent-Length: {body_len}\r\n\r\n")
            .into_bytes();
    req.extend_from_slice(&(ips.len() as u32).to_be_bytes());
    for ip in ips {
        req.extend_from_slice(&ip.to_be_bytes());
    }
    req
}

/// The verdict bytes of a `/batch-bin` answer (0 = clean, else the
/// matched prefix length + 1), after its generation and count words.
pub fn batch_bin_verdicts(body: &[u8]) -> Result<&[u8], String> {
    if body.len() < 8 {
        return Err(format!("batch-bin answer of {} bytes", body.len()));
    }
    let count = u32::from_be_bytes([body[4], body[5], body[6], body[7]]) as usize;
    body.get(8..8 + count)
        .ok_or_else(|| format!("batch-bin answer truncated: {count} verdicts announced"))
}

/// The verdict a `/lookup` JSON answer encodes, in `/batch-bin` terms.
pub fn lookup_verdict(body: &[u8]) -> Result<u8, String> {
    let text = std::str::from_utf8(body).map_err(|_| "lookup answer is not utf-8")?;
    if text.contains("\"blocked\":false") {
        return Ok(0);
    }
    let n = text
        .split("\"n\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u8>().ok())
        .ok_or_else(|| format!("unexpected lookup answer {text:?}"))?;
    Ok(n + 1)
}

/// One HTTP/1.0 request on a fresh connection (control endpoints).
pub fn one_shot(addr: &str, method: &str, path: &str) -> Result<(u16, String), String> {
    let mut conn = Conn::connect(addr)?;
    let request = format!("{method} {path} HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    let (status, body) = conn.exchange(request.as_bytes())?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_pipelined_responses() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\ncontent-length: 3\r\n\r\nabc";
        let mut buf = one.to_vec();
        buf.extend_from_slice(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
        let f = frame_response(&buf).expect("ok").expect("complete");
        assert_eq!((f.status, f.body_len), (200, 3));
        assert_eq!(&buf[f.head_len..f.head_len + f.body_len], b"abc");
        let rest = &buf[f.head_len + f.body_len..];
        let g = frame_response(rest).expect("ok").expect("complete");
        assert_eq!((g.status, g.body_len), (404, 0));
        assert_eq!(frame_response(&one[..one.len() - 1]).expect("ok"), None);
        assert!(frame_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn reads_both_answer_shapes() {
        let blocked = br#"{"blocked":true,"cidr":"9.1.2.0/24","generation":1,"ip":"9.1.2.3","n":24,"score":0.5}"#;
        assert_eq!(lookup_verdict(blocked), Ok(25));
        let clean = br#"{"blocked":false,"cidr":null,"generation":1,"ip":"1.1.1.1","n":null}"#;
        assert_eq!(lookup_verdict(clean), Ok(0));
        let body = [0, 0, 0, 7, 0, 0, 0, 2, 33, 0];
        assert_eq!(batch_bin_verdicts(&body), Ok(&[33u8, 0][..]));
        assert!(batch_bin_verdicts(&body[..9]).is_err());
    }

    #[test]
    fn batch_bin_request_frames_its_body() {
        let req = batch_bin_request(&[0x0102_0304, 5]);
        let text = String::from_utf8_lossy(&req);
        assert!(text.contains("Content-Length: 12\r\n\r\n"), "{text}");
        assert_eq!(
            &req[req.len() - 12..],
            &[0, 0, 0, 2, 1, 2, 3, 4, 0, 0, 0, 5]
        );
    }
}
