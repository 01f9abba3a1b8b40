//! The load client: one process, at most `nproc` threads and
//! connections, speaking wire v2 through [`crate::proto`].
//!
//! Three disciplines, one per workload:
//! - [`replay`]: a scheduled replay (`at_us` stamps) over one
//!   connection, pipelined up to a window of unanswered requests;
//! - [`closed`]: a closed loop, one outstanding request per connection;
//! - [`open`]: a wall-paced open loop, each request timed from the
//!   moment it was due.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gateway::{connect, SILENCE};
use crate::proto::{self, Kind};

/// Unanswered requests a replay keeps in flight. Edge refusals answer
/// at once and admitted requests resolve within about one virtual
/// second of later arrivals (a few hundred lines at the schedule's
/// peak), so the window never stalls the replay; it only bounds the
/// bytes queued in the sockets.
const REPLAY_WINDOW: usize = 4096;

/// Lines written per replay `write` call.
const REPLAY_CHUNK: usize = 256;

/// What one repetition's client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Outcome per `seq`.
    pub kinds: Vec<Kind>,
    /// Wall latency of each completed (ok or violated) request, ms.
    pub latency_ms: Vec<f64>,
    /// The latency the gateway reported for each completed request, ms
    /// on the engine's clock.
    pub reported_ms: Vec<f64>,
    /// How late the generator sent each request, µs (open loop only).
    pub lateness_us: Vec<f64>,
    /// Wall seconds from the first send to the last answer.
    pub wall_s: f64,
    /// Request plus answer bytes on the wire.
    pub bytes: u64,
    /// Answers that matched no unanswered request of this run.
    pub stray: u64,
}

/// Answers read on one connection, by `seq`.
struct Answers {
    kinds: Vec<Kind>,
    at: Vec<Option<Instant>>,
    reported_ms: Vec<Option<f64>>,
    count: usize,
    last: Option<Instant>,
    bytes: u64,
    stray: u64,
}

impl Answers {
    fn new(n: usize) -> Answers {
        Answers {
            kinds: vec![Kind::Unanswered; n],
            at: vec![None; n],
            reported_ms: vec![None; n],
            count: 0,
            last: None,
            bytes: 0,
            stray: 0,
        }
    }

    /// Files one answer line read at `at`.
    fn file(&mut self, line: &str, at: Instant) {
        self.bytes += line.len() as u64;
        let answer = proto::parse_answer(line)
            .and_then(|a| Some((a.seq? as usize, a)))
            .filter(|&(seq, _)| seq < self.kinds.len() && self.kinds[seq] == Kind::Unanswered);
        match answer {
            Some((seq, answer)) => {
                self.kinds[seq] = answer.kind;
                self.at[seq] = Some(at);
                self.reported_ms[seq] = answer.latency_ms;
                self.count += 1;
                self.last = Some(at);
            }
            None => self.stray += 1,
        }
    }

    fn merge(&mut self, other: Answers) {
        for (seq, kind) in other.kinds.into_iter().enumerate() {
            if kind == Kind::Unanswered {
                continue;
            }
            if self.kinds[seq] != Kind::Unanswered {
                self.stray += 1;
                continue;
            }
            self.kinds[seq] = kind;
            self.at[seq] = other.at[seq];
            self.reported_ms[seq] = other.reported_ms[seq];
            self.count += 1;
        }
        self.last = self.last.max(other.last);
        self.bytes += other.bytes;
        self.stray += other.stray;
    }

    /// Latency of completed requests from `from[seq]` to the answer.
    fn finish(self, from: &[Option<Instant>], first: Instant, sent_bytes: usize) -> ClientRun {
        let latency_ms = self
            .kinds
            .iter()
            .zip(&self.at)
            .zip(from)
            .filter(|((kind, _), _)| matches!(kind, Kind::Ok | Kind::Violated))
            .filter_map(|((_, at), from)| Some(at.as_ref()?.duration_since(*from.as_ref()?)))
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let reported_ms = self
            .kinds
            .iter()
            .zip(&self.reported_ms)
            .filter(|(kind, _)| matches!(kind, Kind::Ok | Kind::Violated))
            .filter_map(|(_, ms)| *ms)
            .collect();
        ClientRun {
            latency_ms,
            reported_ms,
            wall_s: self
                .last
                .map_or(0.0, |l| l.duration_since(first).as_secs_f64()),
            bytes: self.bytes + sent_bytes as u64,
            stray: self.stray,
            kinds: self.kinds,
            lateness_us: Vec::new(),
        }
    }
}

/// Request lines with their byte offsets: line `i` is
/// `text[ends[i - 1]..ends[i]]`.
#[derive(Default)]
pub struct Lines {
    pub text: String,
    pub ends: Vec<usize>,
}

impl Lines {
    pub fn push(&mut self, f: impl FnOnce(&mut String)) {
        f(&mut self.text);
        self.ends.push(self.text.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn line(&self, i: usize) -> &[u8] {
        self.range(i, i + 1)
    }

    fn range(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.text.as_bytes()[start..self.ends[to - 1]]
    }
}

/// Runs `f(c)` for every connection `c`: connection 0 on the calling
/// thread, the others on scoped threads, so the client runs no more
/// threads than connections.
fn per_connection<T: Send>(
    conns: usize,
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let f = &f;
        let others: Vec<_> = (1..conns).map(|c| s.spawn(move || f(c))).collect();
        let mut parts = vec![f(0)];
        for handle in others {
            parts.push(
                handle
                    .join()
                    .unwrap_or_else(|_| Err("client thread panicked".into())),
            );
        }
        parts.into_iter().collect()
    })
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Reads answer lines until all `n` requests are answered or the
/// connection goes silent; `progress` publishes the count.
fn read_answers(stream: &TcpStream, n: usize, progress: &AtomicUsize) -> Answers {
    let mut answers = Answers::new(n);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while answers.count < n {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => answers.file(&line, Instant::now()),
        }
        progress.store(answers.count, Ordering::Release);
    }
    answers
}

/// Scheduled replay over one connection: a writer thread streams the
/// request lines, then `tail` (the final clock advance), while the
/// calling thread reads answers. Latency runs from a line's write to
/// its answer.
pub fn replay(addr: &str, lines: &Lines, tail: &str) -> Result<ClientRun, String> {
    let n = lines.len();
    let stream = connect(addr)?;
    let mut writer = stream.try_clone().map_err(io_err("clone"))?;
    let answered = AtomicUsize::new(0);
    let first = Instant::now();
    let (answers, sent) = std::thread::scope(|s| {
        let answered = &answered;
        let handle = s.spawn(move || -> Result<Vec<Option<Instant>>, String> {
            let mut sent = vec![None; n];
            let mut next = 0;
            while next < n {
                let open = answered.load(Ordering::Acquire) + REPLAY_WINDOW;
                if open <= next {
                    std::thread::sleep(Duration::from_micros(100));
                    continue;
                }
                let to = n.min(open).min(next + REPLAY_CHUNK);
                let now = Instant::now();
                sent[next..to].iter_mut().for_each(|t| *t = Some(now));
                writer
                    .write_all(lines.range(next, to))
                    .map_err(io_err("replay write"))?;
                next = to;
            }
            writer
                .write_all(tail.as_bytes())
                .map_err(io_err("replay tail"))?;
            Ok(sent)
        });
        let answers = read_answers(&stream, n, answered);
        let sent = handle
            .join()
            .unwrap_or_else(|_| Err("replay writer panicked".into()));
        (answers, sent)
    });
    Ok(answers.finish(&sent?, first, lines.text.len() + tail.len()))
}

/// Closed loop: connection `c` of `conns` sends every request whose
/// `seq % conns == c`, one at a time, each after the previous answer.
pub fn closed(addr: &str, lines: &Lines, conns: usize) -> Result<ClientRun, String> {
    let n = lines.len();
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let first = Instant::now();
    let parts = per_connection(conns, |c| {
        let stream = &streams[c];
        let mut answers = Answers::new(n);
        let mut sent = vec![None; n];
        let mut writer = stream;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for seq in (c..n).step_by(conns) {
            sent[seq] = Some(Instant::now());
            writer
                .write_all(lines.line(seq))
                .map_err(io_err("closed write"))?;
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => answers.file(&line, Instant::now()),
            }
        }
        Ok((answers, sent))
    })?;
    let mut answers = Answers::new(n);
    let mut sent = vec![None; n];
    for (part, part_sent) in parts {
        answers.merge(part);
        for (slot, t) in sent.iter_mut().zip(part_sent) {
            *slot = slot.or(t);
        }
    }
    Ok(answers.finish(&sent, first, lines.text.len()))
}

/// Wall-paced open loop: connection `c` of `conns` sends every request
/// whose `seq % conns == c` at its due time `due[seq]` after the start,
/// whatever is outstanding. Latency runs from the due time, so a stall
/// charges every request it delayed; the generator's own lateness is
/// reported beside it.
pub fn open(
    addr: &str,
    lines: &Lines,
    due: &[Duration],
    conns: usize,
) -> Result<ClientRun, String> {
    let n = lines.len();
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    for stream in &streams {
        stream
            .set_nonblocking(true)
            .map_err(io_err("nonblocking"))?;
    }
    let start = Instant::now() + Duration::from_millis(5);
    let parts = per_connection(conns, |c| {
        open_connection(&streams[c], lines, due, c, conns, start)
    })?;
    let mut answers = Answers::new(n);
    let mut lateness = Vec::with_capacity(n);
    for (part, late) in parts {
        answers.merge(part);
        lateness.extend(late);
    }
    let from: Vec<Option<Instant>> = due.iter().map(|d| Some(start + *d)).collect();
    let mut run = answers.finish(&from, start, lines.text.len());
    run.lateness_us = lateness;
    Ok(run)
}

/// One open-loop connection on a non-blocking socket: send what is
/// due, read what arrived, otherwise nap briefly.
fn open_connection(
    mut stream: &TcpStream,
    lines: &Lines,
    due: &[Duration],
    c: usize,
    conns: usize,
    start: Instant,
) -> Result<(Answers, Vec<f64>), String> {
    let n = lines.len();
    let mine: Vec<usize> = (c..n).step_by(conns).collect();
    let mut answers = Answers::new(n);
    let mut lateness = Vec::with_capacity(mine.len());
    let mut next = 0;
    let mut pending = Vec::<u8>::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut heard = Instant::now();
    while answers.count < mine.len() {
        let now = Instant::now();
        while next < mine.len() && start + due[mine[next]] <= now {
            let seq = mine[next];
            lateness.push(now.duration_since(start + due[seq]).as_secs_f64() * 1e6);
            write_blocking(stream, lines.line(seq))?;
            next += 1;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(got) => {
                let at = Instant::now();
                heard = at;
                pending.extend_from_slice(&buf[..got]);
                let mut from = 0;
                while let Some(end) = pending[from..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&pending[from..from + end + 1]);
                    answers.file(&line, at);
                    from += end + 1;
                }
                pending.drain(..from);
                continue;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("open-loop read: {e}")),
        }
        if next == mine.len() && heard.elapsed() > SILENCE {
            break;
        }
        let until_due = mine.get(next).map_or(Duration::MAX, |&seq| {
            (start + due[seq]).saturating_duration_since(Instant::now())
        });
        std::thread::sleep(until_due.min(Duration::from_micros(200)));
    }
    Ok((answers, lateness))
}

/// `write_all` on a non-blocking socket.
fn write_blocking(mut stream: &TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("open-loop write: connection closed".into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) => return Err(format!("open-loop write: {e}")),
        }
    }
    Ok(())
}
