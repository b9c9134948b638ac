//! Property-based tests for the XML parser: arbitrary element trees must
//! survive a serialize → parse round-trip, and escaping must be lossless.
//!
//! The rest fuzzes the decoders that read XML from outside the program,
//! [`Document::parse`] and the configuration loader behind `gest run`,
//! `gest resume` and `POST /runs` ([`GestConfig::from_xml_str`]): arbitrary
//! text up to 4 KiB, bit flips and truncations of the shipped example
//! configurations, and nesting around [`MAX_DEPTH`] must never panic, and
//! every document that parses must survive parse → write → parse.

use gest_core::GestConfig;
use gest_xml::{
    escape_attr, escape_text, unescape, Document, Element, Position, Writer, MAX_DEPTH,
};
use proptest::prelude::*;

const EXAMPLES: [&str; 2] = [
    include_str!("../../../examples/configs/power_a15.xml"),
    include_str!("../../../examples/configs/didt_athlon.xml"),
];

/// Longest fuzz input, in bytes.
const MAX_INPUT: usize = 4096;

/// Markup fragments that random bytes almost never spell, so token soup
/// reaches the parser's deeper states: tags, attributes, entities,
/// comments, CDATA, processing instructions and multi-byte text.
const TOKENS: [&str; 24] = [
    "<",
    ">",
    "/",
    "</",
    "/>",
    "=",
    "\"",
    "'",
    "&",
    ";",
    "&amp;",
    "&#x41;",
    "&#9999999999;",
    "<!--",
    "-->",
    "<![CDATA[",
    "]]>",
    "<?",
    "?>",
    "gest",
    "a",
    " ",
    "\n",
    "é→",
];

/// Cuts `text` to at most [`MAX_INPUT`] bytes on a character boundary.
fn capped(mut text: String) -> String {
    let mut end = text.len().min(MAX_INPUT);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    text.truncate(end);
    text
}

/// Feeds `input` to both decoders; a tree that parses must come back
/// unchanged from its own serialization.
fn decode_both(input: &str) {
    if let Ok(doc) = Document::parse(input) {
        let reparsed = Document::parse(&doc.to_string());
        assert_eq!(reparsed.as_ref(), Ok(&doc), "{input:?}");
    }
    let _ = GestConfig::from_xml_str(input);
}

/// `depth` nested elements, the innermost self-closing or not, inside a
/// `<gest>` configuration root when `in_config` is set.
fn nested(depth: usize, self_closing: bool, in_config: bool) -> String {
    let (open, close) = if in_config {
        ("<gest><target machine=\"cortex-a15\"/>", "</gest>")
    } else {
        ("", "")
    };
    let inner = depth - usize::from(in_config);
    let (innermost, levels) = if self_closing {
        ("<a/>", inner - 1)
    } else {
        ("", inner)
    };
    format!(
        "{open}{}{innermost}{}{close}",
        "<a>".repeat(levels),
        "</a>".repeat(levels)
    )
}

/// Strategy for XML names (restricted to a safe alphabet).
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_.-]{0,12}"
}

/// Strategy for attribute values / text content including tricky characters.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").expect("valid regex")
}

fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        name_strategy(),
        prop::collection::vec((name_strategy(), value_strategy()), 0..4),
    )
        .prop_map(|(name, attrs)| {
            let mut el = Element::new(name);
            for (k, v) in attrs {
                el.set_attr(k, v);
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), value_strategy()), 0..3),
            prop::collection::vec(inner, 0..4),
            value_strategy(),
        )
            .prop_map(|(name, attrs, children, text)| {
                let mut el = Element::new(name);
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                // Interleave a text node so mixed content is exercised.
                if !text.is_empty() {
                    el.push_text_node(text);
                }
                for child in children {
                    el.push_child(child);
                }
                el
            })
    })
}

proptest! {
    #[test]
    fn escape_text_roundtrips(s in value_strategy()) {
        let escaped = escape_text(&s);
        let back = unescape(&escaped, Position::START).unwrap();
        prop_assert_eq!(back.as_ref(), s.as_str());
    }

    #[test]
    fn escape_attr_roundtrips(s in value_strategy()) {
        let escaped = escape_attr(&s);
        let back = unescape(&escaped, Position::START).unwrap();
        prop_assert_eq!(back.as_ref(), s.as_str());
    }

    #[test]
    fn tree_roundtrips_compact(el in element_strategy()) {
        let mut writer = Writer::new();
        writer.write_element(&el);
        let doc = Document::parse(writer.as_str()).unwrap();
        prop_assert_eq!(doc.root(), &el);
    }

    #[test]
    fn parser_never_panics_on_ascii(input in "[ -~]{0,64}") {
        // Any outcome is fine; it just must not panic.
        let _ = Document::parse(&input);
    }

    #[test]
    fn unescape_never_panics(input in "[ -~]{0,64}") {
        let _ = unescape(&input, Position::START);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT),
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..1024usize),
    ) {
        decode_both(&capped(String::from_utf8_lossy(&bytes).into_owned()));
        decode_both(&capped(tokens.concat()));
    }

    #[test]
    fn mangled_example_configs_never_panic(
        which in 0..EXAMPLES.len(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4usize),
        cut in any::<usize>(),
    ) {
        let bytes = EXAMPLES[which].as_bytes();
        let mut flipped = bytes.to_vec();
        for (position, bit) in flips {
            flipped[position % bytes.len()] ^= 1 << bit;
        }
        decode_both(&String::from_utf8_lossy(&flipped));
        decode_both(&String::from_utf8_lossy(&bytes[..cut % bytes.len()]));
    }

    #[test]
    fn nesting_parses_up_to_the_cap_and_errors_past_it(
        depth in MAX_DEPTH - 3..MAX_DEPTH + 4,
        self_closing in any::<bool>(),
        in_config in any::<bool>(),
    ) {
        let text = nested(depth, self_closing, in_config);
        prop_assert_eq!(Document::parse(&text).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        decode_both(&text);
    }
}

#[test]
fn example_configs_load() {
    for example in EXAMPLES {
        GestConfig::from_xml_str(example).unwrap();
    }
}
