from pkg.mod import Widget, reexported, stray

stray()
reexported()
Widget().spin()
