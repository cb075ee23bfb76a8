//! Property tests: STOMP encode/decode round-trips for arbitrary frames,
//! including adversarial header content and chunked delivery, and a
//! decoder resumed at any byte boundary.

use proptest::prelude::*;
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::{Command, Frame};

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Connect),
        Just(Command::Connected),
        Just(Command::Send),
        Just(Command::Subscribe),
        Just(Command::Unsubscribe),
        Just(Command::Message),
        Just(Command::Receipt),
        Just(Command::Error),
        Just(Command::Disconnect),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_command(),
        proptest::collection::vec(("[a-zA-Z-]{1,10}", "\\PC{0,20}"), 0..6),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(cmd, headers, body)| {
            let mut f = Frame::new(cmd);
            for (k, v) in headers {
                if k != "content-length" {
                    f.push_header(k, v);
                }
            }
            f.set_body(body);
            f
        })
}

/// Header text from the characters STOMP escapes and a few plain ones,
/// empty included.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just(':'),
            Just('\n'),
            Just('\r'),
            Just('\\'),
            Just('a'),
            Just('b'),
            Just('é'),
            Just(' '),
        ],
        0..6,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Names from a small pool, so duplicates are common, `content-length`
/// among them, plus escaped ones.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("destination"),
            Just("id"),
            Just("content-length"),
            Just("x"),
        ]
        .prop_map(str::to_string),
        arb_text().prop_filter("names are not empty", |n| !n.is_empty()),
    ]
}

/// `encode(frame)`, with every head line ended by `\r\n` if `crlf`.
fn wire_bytes(frame: &Frame, crlf: bool) -> Vec<u8> {
    let bytes = encode(frame);
    if !crlf {
        return bytes;
    }
    // Escaping keeps raw newlines out of header text.
    let head_end = bytes.windows(2).position(|w| w == b"\n\n").unwrap() + 2;
    let mut out = Vec::with_capacity(bytes.len() + 16);
    for &b in &bytes[..head_end] {
        if b == b'\n' {
            out.push(b'\r');
        }
        out.push(b);
    }
    out.extend_from_slice(&bytes[head_end..]);
    out
}

proptest! {
    /// A frame fed in two pieces split at any byte, a head's `\n\r\n`
    /// included, or one byte at a time with a decode after each, decodes
    /// to the frame the whole bytes decode to, and only once complete.
    #[test]
    fn a_frame_split_at_any_byte_decodes_the_same(frame in arb_frame(), crlf in any::<bool>()) {
        let bytes = wire_bytes(&frame, crlf);
        let mut whole = Decoder::new();
        whole.feed(&bytes);
        let want = whole.next_frame().unwrap().expect("complete frame");
        prop_assert_eq!(want.command(), frame.command());
        prop_assert_eq!(want.body(), frame.body());
        for split in 0..bytes.len() {
            let mut d = Decoder::new();
            d.feed(&bytes[..split]);
            prop_assert!(d.next_frame().unwrap().is_none(), "complete after {} bytes", split);
            d.feed(&bytes[split..]);
            let got = d.next_frame().unwrap();
            prop_assert_eq!(got.as_ref(), Some(&want), "split at {}", split);
            prop_assert!(d.next_frame().unwrap().is_none());
        }
        let mut d = Decoder::new();
        for (i, b) in bytes.iter().enumerate() {
            d.feed(std::slice::from_ref(b));
            let got = d.next_frame().unwrap();
            let last = i + 1 == bytes.len();
            prop_assert_eq!(got.as_ref(), if last { Some(&want) } else { None }, "byte {}", i);
        }
    }

    /// decode(encode(f)) carries f's headers in order, escapes,
    /// duplicates and empty values included; the encoder drops a
    /// caller's `content-length` and appends the body's own last.
    #[test]
    fn header_sequence_roundtrips(
        headers in proptest::collection::vec((arb_name(), arb_text()), 0..8),
        body in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut frame = Frame::new(Command::Send);
        for (name, value) in &headers {
            frame.push_header(name, value);
        }
        frame.set_body(body.clone());
        let mut d = Decoder::new();
        d.feed(&encode(&frame));
        let back = d.next_frame().unwrap().expect("complete frame");
        let length = body.len().to_string();
        let expected = headers
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .filter(|(k, _)| *k != "content-length")
            .chain([("content-length", length.as_str())]);
        prop_assert!(back.headers().eq(expected), "{:?} from {:?}", back, headers);
        for (name, _) in &headers {
            let first = match name.as_str() {
                "content-length" => Some(length.as_str()),
                _ => headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str()),
            };
            prop_assert_eq!(back.header(name), first, "the first {:?} wins", name);
        }
        prop_assert_eq!(back.body(), &body[..]);
    }

    /// encode → decode returns an equivalent frame (plus the synthesised
    /// content-length header).
    #[test]
    fn roundtrip(frame in arb_frame()) {
        let bytes = encode(&frame);
        let mut d = Decoder::new();
        d.feed(&bytes);
        let back = d.next_frame().unwrap().expect("complete frame");
        prop_assert_eq!(back.command(), frame.command());
        prop_assert_eq!(back.body(), frame.body());
        for (k, _) in frame.headers() {
            prop_assert_eq!(back.header(k), frame.header(k), "header {}", k);
        }
        prop_assert!(d.next_frame().unwrap().is_none());
    }

    /// Chunked delivery (1..7-byte chunks) decodes identically.
    #[test]
    fn chunked_roundtrip(frame in arb_frame(), chunk in 1usize..7) {
        let bytes = encode(&frame);
        let mut d = Decoder::new();
        let mut out = None;
        for c in bytes.chunks(chunk) {
            d.feed(c);
            if out.is_none() {
                out = d.next_frame().unwrap();
            }
        }
        if out.is_none() {
            out = d.next_frame().unwrap();
        }
        let back = out.expect("complete frame");
        prop_assert_eq!(back.command(), frame.command());
        prop_assert_eq!(back.body(), frame.body());
    }

    /// Multiple concatenated frames all decode, in order.
    #[test]
    fn sequence_roundtrip(frames in proptest::collection::vec(arb_frame(), 0..5)) {
        let mut d = Decoder::new();
        for f in &frames {
            d.feed(&encode(f));
        }
        for f in &frames {
            let back = d.next_frame().unwrap().expect("frame");
            prop_assert_eq!(back.command(), f.command());
            prop_assert_eq!(back.body(), f.body());
        }
        prop_assert!(d.next_frame().unwrap().is_none());
    }

    /// The decoder is total on garbage: it errors or waits, never panics.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut d = Decoder::new();
        d.feed(&bytes);
        for _ in 0..4 {
            if d.next_frame().is_err() {
                break;
            }
        }
    }
}
