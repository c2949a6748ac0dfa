//! The load generator's own HTTP/1.1 client: one keep-alive connection,
//! prebuilt request bytes, a reused response buffer, and incremental
//! chunk reads for `/watch` (the program's `HttpClient` drains a whole
//! stream, and a change to it must not move the benchmark).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stuck server turns into a failed op, not a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Conn {
    wr: TcpStream,
    rd: BufReader<TcpStream>,
    line: String,
    body: Vec<u8>,
}

/// The wire bytes of one request.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn post_json(path: &str, body: &str) -> Vec<u8> {
    request("POST", path, body)
}

/// `"…"` with the characters a delta script or query can contain escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let wr = TcpStream::connect(addr)?;
        wr.set_nodelay(true)?;
        wr.set_read_timeout(Some(IO_TIMEOUT))?;
        wr.set_write_timeout(Some(IO_TIMEOUT))?;
        let rd = BufReader::new(wr.try_clone()?);
        Ok(Conn {
            wr,
            rd,
            line: String::new(),
            body: Vec::new(),
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.wr.write_all(request)
    }

    /// Read the status line and headers; returns the status, the
    /// `Content-Length` if one was sent, and whether the body is chunked.
    fn read_head(&mut self) -> io::Result<(u16, Option<usize>, bool)> {
        self.line.clear();
        self.rd.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut len, mut chunked) = (None, false);
        loop {
            self.line.clear();
            self.rd.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                return Ok((status, len, chunked));
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.trim().eq_ignore_ascii_case("chunked");
                }
            }
        }
    }

    /// Read one `Content-Length` response.
    pub fn recv(&mut self) -> io::Result<(u16, &str)> {
        let (status, len, chunked) = self.read_head()?;
        if chunked {
            return Err(bad("unexpected chunked response"));
        }
        self.body.resize(len.unwrap_or(0), 0);
        self.rd.read_exact(&mut self.body)?;
        let body = std::str::from_utf8(&self.body).map_err(|_| bad("body is not UTF-8"))?;
        Ok((status, body))
    }

    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(u16, &str)> {
        self.send(request)?;
        self.recv()
    }

    /// Read the head of a chunked (`/watch`) response.
    pub fn recv_stream_head(&mut self) -> io::Result<u16> {
        let (status, _, chunked) = self.read_head()?;
        if status == 200 && !chunked {
            return Err(bad("expected a chunked stream"));
        }
        Ok(status)
    }

    /// Read the next chunk of a stream; `None` is the terminal chunk.
    pub fn recv_chunk(&mut self) -> io::Result<Option<&str>> {
        self.line.clear();
        self.rd.read_line(&mut self.line)?;
        let size =
            usize::from_str_radix(self.line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        self.body.resize(size + 2, 0);
        self.rd.read_exact(&mut self.body)?;
        if size == 0 {
            return Ok(None);
        }
        let chunk = std::str::from_utf8(&self.body[..size]).map_err(|_| bad("chunk not UTF-8"))?;
        Ok(Some(chunk))
    }
}

/// The raw text of `"key":<value>` inside `body`, searched from the first
/// occurrence of `after` (pass `""` for a top-level key). Enough for the
/// flat objects the service answers with; answers are compared as text,
/// so the check does not lean on the program's own JSON parser.
pub fn field<'a>(body: &'a str, after: &str, key: &str) -> Option<&'a str> {
    let from = body.find(after)?;
    let needle = format!("\"{key}\":");
    let start = from + body[from..].find(&needle)? + needle.len();
    let rest = &body[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

pub fn field_u64(body: &str, after: &str, key: &str) -> Option<u64> {
    field(body, after, key)?.trim().parse().ok()
}
