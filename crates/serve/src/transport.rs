//! Line-delimited transport: requests in on a reader, events out on a
//! writer. This is the stdin/stdout framing used by `rmsc serve`; the
//! same function serves any `BufRead`/`Write` pair (pipes, sockets,
//! in-memory buffers in tests).

use std::io::{BufRead, Write};
use std::sync::mpsc;

use crate::protocol::JobError;
use crate::server::{Server, ServerConfig, ServerStats};

/// Serve requests from `reader` until EOF, streaming events to
/// `writer`, then drain gracefully and emit the final `drained`
/// summary. Returns the lifetime counters.
///
/// Events from concurrent jobs interleave on the writer, but each line
/// is written atomically and every job's `accepted` event precedes its
/// terminal event. A line that is not UTF-8 is answered with an `invalid`
/// error, like any other malformed line; only the reader or the writer
/// failing ends the session early.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    reader: R,
    writer: W,
    config: ServerConfig,
) -> std::io::Result<ServerStats> {
    let server = Server::start(config);
    let (tx, rx) = mpsc::channel::<String>();

    std::thread::scope(|scope| {
        let pump = scope.spawn(move || -> std::io::Result<W> {
            let mut writer = writer;
            for line in rx {
                writeln!(writer, "{line}")?;
                writer.flush()?;
            }
            Ok(writer)
        });

        for line in reader.split(b'\n') {
            let Ok(line) = String::from_utf8(line?) else {
                let message = "request line is not UTF-8".to_string();
                let _ = tx.send(JobError::Invalid { message }.event(""));
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            server.submit_line(&line, &tx);
        }

        let stats = server.drain();
        let _ = tx.send(stats.drained_event());
        drop(tx);
        match pump.join() {
            Ok(result) => result.map(|_| stats),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}
