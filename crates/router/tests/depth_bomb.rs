//! A request line of nothing but open brackets, sent through a live router
//! to a live shard. The router cannot parse it, so it forwards it verbatim
//! and the shard's own diagnostic must come back — and both must keep
//! serving. Before the shared parser had a depth cap, this one line
//! overflowed the stack of whichever process parsed it first and aborted
//! it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use tsn_router::{Router, RouterConfig};
use tsn_service::protocol::Response;
use tsn_service::{Service, ServiceConfig};

fn round_trip(stream: &mut BufReader<TcpStream>, line: &str) -> Response {
    let socket = stream.get_mut();
    socket.write_all(line.as_bytes()).expect("send line");
    socket.write_all(b"\n").expect("terminate line");
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("read response");
    Response::parse_line(&reply).expect("well-formed envelope")
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect"))
}

#[test]
fn depth_bomb_through_the_router_is_the_shards_typed_error_and_both_survive() {
    let shard_listener = TcpListener::bind("127.0.0.1:0").expect("bind shard");
    let shard_addr = shard_listener.local_addr().expect("shard addr");
    let router_listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = router_listener.local_addr().expect("router addr");
    let service = Service::new(ServiceConfig::default());
    let router = Router::new(RouterConfig {
        shards: vec![shard_addr.to_string()],
    })
    .expect("router");

    std::thread::scope(|scope| {
        let shard = scope.spawn(|| tsn_service::serve(&service, shard_listener));
        let front = scope.spawn(|| tsn_router::serve(&router, router_listener));

        let mut client = connect(router_addr);
        let bomb = "[".repeat(1 << 20);
        let response = round_trip(&mut client, &bomb);
        let message = response.outcome.expect_err("a bomb is not a request");
        assert!(
            message.contains("malformed request") && message.contains("nesting"),
            "the shard's diagnostic must come back through the router: {message}"
        );

        // Same connection, next request: the router and the shard behind it
        // both still answer; so does the shard when asked directly.
        const PING: &str = r#"{"id":5,"request":{"type":"ping"}}"#;
        let pong = round_trip(&mut client, PING);
        assert_eq!(pong.id, 5);
        assert!(pong.outcome.is_ok(), "router path died: {:?}", pong.outcome);
        assert!(round_trip(&mut connect(shard_addr), PING).outcome.is_ok());

        // `shutdown` through the router stops the whole fleet.
        let bye = round_trip(&mut client, r#"{"id":6,"request":{"type":"shutdown"}}"#);
        assert!(bye.outcome.is_ok());
        drop(client);
        front.join().expect("router thread").expect("router clean");
        shard.join().expect("shard thread").expect("shard clean");
    });
}
