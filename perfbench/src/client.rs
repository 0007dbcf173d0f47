//! A keep-alive HTTP/1.1 client.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One persistent connection. Responses are framed by
/// `Content-Length`; the `BufReader` owns the stream for the
/// connection's life, so bytes it buffers past one response belong to
/// the next.
pub struct Client {
    conn: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Client {
            conn: BufReader::new(s),
        })
    }

    /// Sends the complete request bytes and reads one response:
    /// `(status, body)`.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<(u16, String)> {
        self.send(request)?;
        self.receive()
    }

    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        let w = self.conn.get_mut();
        w.write_all(request)?;
        w.flush()
    }

    pub fn receive(&mut self) -> std::io::Result<(u16, String)> {
        read_response(&mut self.conn)
    }
}

/// Reads one `Content-Length`-framed response from `r`.
fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, String)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut status = 0u16;
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-response"));
        }
        let t = line.trim_end();
        if t.is_empty() {
            break;
        }
        if let Some(rest) = t.strip_prefix("HTTP/1.1 ") {
            status = rest
                .split(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad status line"))?;
        } else if let Some((name, value)) = t.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    let mut bytes = vec![0u8; length];
    r.read_exact(&mut bytes)?;
    let body = String::from_utf8(bytes).map_err(|_| bad("non-UTF-8 body"))?;
    Ok((status, body))
}
