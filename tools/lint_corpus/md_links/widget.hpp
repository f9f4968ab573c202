// Source file the check_md_links.py self-test cites by line number:
// moving a declaration here means updating fixture.md to match.
#pragma once

namespace demo {

/// A widget.
class Widget {
 public:
  void spin();
};

void polish(Widget& w);

}  // namespace demo
