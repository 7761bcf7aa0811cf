//! Dropping a `TcpServerTransport` closes every connection it ever accepted — also one
//! whose reader thread registers the connection while the drop is under way. A peer
//! that said `Hello` just before the drop must read EOF at once, not wait out its read
//! timeout on a socket that nobody will ever write to.

use dssp_net::{wire, Message, TcpServerTransport, PROTOCOL_VERSION};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn a_hello_just_before_the_drop_still_sees_eof() {
    let mut hello = Vec::new();
    wire::encode(
        &Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 0,
            num_workers: 4,
            config_digest: 0,
        },
        &mut hello,
    );
    for attempt in 0..200 {
        // Free slots keep the acceptor alive through the drop's self-connects.
        let server = TcpServerTransport::bind("127.0.0.1:0", 4).expect("bind");
        let mut client = TcpStream::connect(server.local_addr()).expect("connect");
        wire::write_frame_payload(&mut client, &hello).expect("hello");
        client.flush().expect("flush");
        drop(server);
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let started = Instant::now();
        match client.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Ok(n) => panic!("attempt {attempt}: {n} unexpected bytes"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "attempt {attempt}: no EOF after {:?}",
                started.elapsed()
            ),
        }
    }
}
