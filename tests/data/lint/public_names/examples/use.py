from pkg.mod import Widget, called

called()
Widget()
