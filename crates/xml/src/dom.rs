//! A minimal XML DOM.

/// An XML element: a name, attributes, and an ordered list of children
/// (elements and text nodes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Element {
    /// The element (tag) name.
    pub name: String,
    /// Attributes, in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes, in document order.
    pub children: Vec<XmlNode>,
}

/// A node of the DOM.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// A text node (entity references already resolved).
    Text(String),
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Adds a text child (builder style).
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterates over child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The concatenated text content of this element (direct text children
    /// only).
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|c| match c {
                XmlNode::Text(t) => Some(t.as_str()),
                XmlNode::Element(_) => None,
            })
            .collect()
    }

    /// Total number of elements in this subtree (including `self`).
    pub fn element_count(&self) -> usize {
        1 + self
            .child_elements()
            .map(Element::element_count)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let el = Element::new("person")
            .with_attr("id", "42")
            .with_child(Element::new("name").with_text("Ada"))
            .with_text("tail");
        assert_eq!(el.attr("id"), Some("42"));
        assert_eq!(el.attr("missing"), None);
        assert_eq!(el.child_elements().count(), 1);
        assert_eq!(el.child_elements().next().unwrap().text(), "Ada");
        assert_eq!(el.text(), "tail");
        assert_eq!(el.element_count(), 2);
    }

    #[test]
    fn text_concatenates_direct_children_only() {
        let el = Element::new("a")
            .with_text("x")
            .with_child(Element::new("b").with_text("hidden"))
            .with_text("y");
        assert_eq!(el.text(), "xy");
    }
}
