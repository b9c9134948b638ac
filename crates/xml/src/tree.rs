//! Tree (DOM-style) API built on top of the pull [`Reader`].

use crate::reader::{Event, Reader};
use crate::XmlError;
use std::fmt;

/// Deepest element nesting [`Document::parse`] accepts. Building the tree
/// recurses once per level, and so do its `Display` and `Drop`, so an
/// unbounded depth would let a hostile document (a `gest serve` request
/// body, a configuration file) overflow the stack; configuration files
/// nest about 4 deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed XML document: exactly one root [`Element`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gest_xml::XmlError> {
/// let doc = gest_xml::Document::parse("<config><ga population='50'/></config>")?;
/// let ga = doc.root().child("ga").expect("ga element");
/// assert_eq!(ga.attr("population"), Some("50"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    root: Element,
}

impl Document {
    /// Parses a complete document from a string.
    ///
    /// # Errors
    ///
    /// Returns an [`XmlError`] if the input is not well-formed or has no
    /// root element.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        let mut reader = Reader::new(input);
        loop {
            match reader.next_event()? {
                Event::StartElement {
                    name,
                    attributes,
                    self_closing,
                } => {
                    let root = Element::finish_parse(&mut reader, name, attributes, self_closing)?;
                    // Drain the remainder so trailing-content errors surface.
                    loop {
                        match reader.next_event()? {
                            Event::Eof => return Ok(Document { root }),
                            Event::Text(t) if t.trim().is_empty() => {}
                            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
                            _ => {
                                return Err(XmlError::TrailingContent {
                                    position: reader.position(),
                                })
                            }
                        }
                    }
                }
                Event::Eof => return Err(XmlError::NoRootElement),
                Event::Text(t) if t.trim().is_empty() => {}
                Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
                Event::Text(_) => {
                    return Err(XmlError::Malformed {
                        message: "text before root element".into(),
                        position: reader.position(),
                    })
                }
                other => {
                    return Err(XmlError::Malformed {
                        message: format!("unexpected {other:?} before root element"),
                        position: reader.position(),
                    })
                }
            }
        }
    }

    /// The document's root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Consumes the document, returning the root element.
    pub fn into_root(self) -> Element {
        self.root
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

/// A child of an [`Element`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entity references already resolved; CDATA merged in).
    Text(String),
    /// A comment.
    Comment(String),
}

/// An XML element: name, attributes and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an element with the given name and no attributes or children.
    ///
    /// # Examples
    ///
    /// ```
    /// let el = gest_xml::Element::new("operand");
    /// assert_eq!(el.name(), "operand");
    /// ```
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    fn finish_parse(
        reader: &mut Reader<'_>,
        name: String,
        attributes: Vec<(String, String)>,
        self_closing: bool,
    ) -> Result<Element, XmlError> {
        if reader.depth() > MAX_DEPTH {
            return Err(XmlError::Malformed {
                message: format!("elements nested deeper than {MAX_DEPTH} levels"),
                position: reader.position(),
            });
        }
        let mut element = Element {
            name,
            attributes,
            children: Vec::new(),
        };
        if self_closing {
            // Consume the synthesized end event.
            match reader.next_event()? {
                Event::EndElement { .. } => return Ok(element),
                other => {
                    return Err(XmlError::Malformed {
                        message: format!("expected synthesized end tag, got {other:?}"),
                        position: reader.position(),
                    })
                }
            }
        }
        loop {
            match reader.next_event()? {
                Event::StartElement {
                    name,
                    attributes,
                    self_closing,
                } => {
                    let child = Element::finish_parse(reader, name, attributes, self_closing)?;
                    element.children.push(Node::Element(child));
                }
                Event::EndElement { .. } => return Ok(element),
                Event::Text(text) => {
                    if !text.is_empty() {
                        element.push_text(text);
                    }
                }
                Event::CData(text) => element.push_text(text),
                Event::Comment(text) => element.children.push(Node::Comment(text)),
                Event::ProcessingInstruction { .. } => {}
                Event::Eof => {
                    return Err(XmlError::UnexpectedEof {
                        expected: "closing tag",
                        position: reader.position(),
                    })
                }
            }
        }
    }

    fn push_text(&mut self, text: String) {
        if let Some(Node::Text(prev)) = self.children.last_mut() {
            prev.push_str(&text);
        } else {
            self.children.push(Node::Text(text));
        }
    }

    /// The element's tag name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attributes in document order.
    pub fn attributes(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing any existing value.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Element {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
        self
    }

    /// All child nodes in document order.
    pub fn nodes(&self) -> &[Node] {
        &self.children
    }

    /// Iterates over child elements (skipping text and comments).
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Iterates over child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children().filter(move |e| e.name == name)
    }

    /// The first child element with the given tag name, if any.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children().find(|e| e.name == name)
    }

    /// Concatenated text content of this element's direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for node in &self.children {
            if let Node::Text(t) = node {
                out.push_str(t);
            }
        }
        out
    }

    /// Appends a child element and returns `self` for chaining.
    pub fn push_child(&mut self, child: Element) -> &mut Element {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends a text node and returns `self` for chaining.
    pub fn push_text_node(&mut self, text: impl Into<String>) -> &mut Element {
        self.push_text(text.into());
        self
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut writer = crate::Writer::new();
        writer.write_element(self);
        f.write_str(writer.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure() {
        let doc = Document::parse(
            "<cfg><instructions><instruction name='ADD'/><instruction name='MUL'/></instructions></cfg>",
        )
        .unwrap();
        let names: Vec<_> = doc
            .root()
            .child("instructions")
            .unwrap()
            .children_named("instruction")
            .filter_map(|e| e.attr("name"))
            .collect();
        assert_eq!(names, ["ADD", "MUL"]);
    }

    #[test]
    fn text_merging_across_cdata() {
        let doc = Document::parse("<a>one <![CDATA[< two >]]> three</a>").unwrap();
        assert_eq!(doc.root().text(), "one < two > three");
    }

    #[test]
    fn missing_root_is_error() {
        assert_eq!(
            Document::parse("  <!-- just a comment -->").unwrap_err(),
            XmlError::NoRootElement
        );
    }

    #[test]
    fn text_before_root_is_error() {
        assert!(matches!(
            Document::parse("oops<a/>").unwrap_err(),
            XmlError::Malformed { .. }
        ));
    }

    #[test]
    fn trailing_comment_and_ws_are_fine() {
        let doc = Document::parse("<a/>  <!-- bye -->\n").unwrap();
        assert_eq!(doc.root().name(), "a");
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("x");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attributes().len(), 1);
    }

    #[test]
    fn display_roundtrip() {
        let source = r#"<a k="v &amp; w"><b/>text</a>"#;
        let doc = Document::parse(source).unwrap();
        let printed = doc.to_string();
        let reparsed = Document::parse(&printed).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn into_root_moves() {
        let doc = Document::parse("<a x='1'/>").unwrap();
        let root = doc.into_root();
        assert_eq!(root.attr("x"), Some("1"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = Document::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(Document::parse(&doc.to_string()).unwrap(), doc);
        // A self-closing innermost element counts as a level too.
        let self_closing = format!(
            "{}<a/>{}",
            "<a>".repeat(MAX_DEPTH - 1),
            "</a>".repeat(MAX_DEPTH - 1)
        );
        assert!(Document::parse(&self_closing).is_ok());

        for depth in [MAX_DEPTH + 1, 8_000] {
            let error = Document::parse(&nested(depth)).unwrap_err();
            assert!(
                matches!(&error, XmlError::Malformed { message, .. } if message.contains("nested deeper")),
                "{depth}: {error}"
            );
        }
        let too_deep = format!(
            "{}<a/>{}",
            "<a>".repeat(MAX_DEPTH),
            "</a>".repeat(MAX_DEPTH)
        );
        assert!(Document::parse(&too_deep).is_err());
        // Depth is released on the way out: siblings each get the full cap.
        let siblings = format!("<r>{}{}</r>", nested(MAX_DEPTH - 1), nested(MAX_DEPTH - 1));
        assert!(Document::parse(&siblings).is_ok());
    }

    #[test]
    fn comments_preserved_as_nodes() {
        let doc = Document::parse("<a><!--hello--></a>").unwrap();
        assert!(matches!(doc.root().nodes()[0], Node::Comment(ref c) if c == "hello"));
    }
}
